package overload

import (
	"testing"
	"time"

	"l25gc/internal/testutil"
)

// TestDrainNeverShed is the core priority invariant: at every shed level,
// in recovery mode, and at 100% queue pressure on every other class,
// drain work (deregistration, UE context release) is still admitted.
func TestDrainNeverShed(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := New("t", Config{Caps: [NumClasses]int64{
		ClassDrain: 1, ClassEmergency: 1, ClassSession: 1, ClassRegistration: 1,
	}})
	// Saturate every cappable class.
	for _, cl := range []Class{ClassEmergency, ClassSession, ClassRegistration} {
		if !c.Admit(cl) {
			t.Fatalf("first %s admit rejected on empty controller", cl.Name())
		}
		if c.Admit(cl) {
			t.Fatalf("%s admitted beyond cap 1", cl.Name())
		}
	}
	for lvl := 0; lvl < NumLevels; lvl++ {
		c.level.Store(int32(lvl))
		for i := 0; i < 10; i++ {
			if !c.Admit(ClassDrain) {
				t.Fatalf("drain shed at level %d (iteration %d)", lvl, i)
			}
		}
	}
	c.EnterRecovery()
	defer c.ExitRecovery()
	for i := 0; i < 10; i++ {
		if !c.Admit(ClassDrain) {
			t.Fatalf("drain shed in recovery mode (iteration %d)", i)
		}
	}
}

// TestShedOrder checks that levels shed exactly in priority order:
// registration first, then session, then emergency; drain never.
func TestShedOrder(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := New("t", Config{})
	type want struct {
		reg, sess, emg bool
	}
	wants := []want{
		{true, true, true},    // level 0
		{false, true, true},   // level 1
		{false, false, true},  // level 2
		{false, false, false}, // level 3
	}
	for lvl, w := range wants {
		c.level.Store(int32(lvl))
		check := func(cl Class, admit bool) {
			got := c.Admit(cl)
			if got {
				c.Release(cl)
			}
			if got != admit {
				t.Errorf("level %d: Admit(%s) = %v, want %v", lvl, cl.Name(), got, admit)
			}
		}
		check(ClassRegistration, w.reg)
		check(ClassSession, w.sess)
		check(ClassEmergency, w.emg)
		check(ClassDrain, true)
	}
}

// TestDepthCapAndHighWater checks the bounded-queue accounting: depth
// never exceeds the cap, rejected admissions do not consume depth, and
// the high-water mark records the peak.
func TestDepthCapAndHighWater(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := New("t", Config{Caps: [NumClasses]int64{ClassRegistration: 3}})
	for i := 0; i < 3; i++ {
		if !c.Admit(ClassRegistration) {
			t.Fatalf("admit %d rejected below cap", i)
		}
	}
	for i := 0; i < 5; i++ {
		if c.Admit(ClassRegistration) {
			t.Fatal("admitted beyond cap")
		}
	}
	if d := c.Depth(ClassRegistration); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
	if hw := c.HighWater(ClassRegistration); hw != 3 {
		t.Fatalf("high-water = %d, want 3", hw)
	}
	if got := c.Shed(ClassRegistration); got != 5 {
		t.Fatalf("shed count = %d, want 5", got)
	}
	c.Release(ClassRegistration)
	if !c.Admit(ClassRegistration) {
		t.Fatal("admit rejected after release freed depth")
	}
	// Extra releases clamp at zero.
	for i := 0; i < 10; i++ {
		c.Release(ClassRegistration)
	}
	if d := c.Depth(ClassRegistration); d != 0 {
		t.Fatalf("depth = %d after over-release, want 0", d)
	}
	if c.HighWater(ClassRegistration) != 3 {
		t.Fatal("high-water lost after releases")
	}
}

// TestFeedbackTightenRelax drives the p99 loop directly: a hot window
// tightens one level per tick, calm windows relax after holdTicks.
func TestFeedbackTightenRelax(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := New("t", Config{TargetP99: 10 * time.Millisecond, MinSamples: 4})
	feed := func(d time.Duration) {
		for i := 0; i < 8; i++ {
			c.Observe(d)
		}
	}
	feed(50 * time.Millisecond)
	c.Tick()
	if c.Level() != 1 {
		t.Fatalf("level = %d after hot tick, want 1", c.Level())
	}
	feed(50 * time.Millisecond)
	c.Tick()
	if c.Level() != 2 {
		t.Fatalf("level = %d after second hot tick, want 2", c.Level())
	}
	// Calm readings: relax only after holdTicks consecutive ones.
	feed(time.Millisecond)
	c.Tick()
	if c.Level() != 2 {
		t.Fatalf("level = %d after one calm tick, want 2 (hysteresis)", c.Level())
	}
	feed(time.Millisecond)
	c.Tick()
	if c.Level() != 1 {
		t.Fatalf("level = %d after two calm ticks, want 1", c.Level())
	}
	// An idle controller (no samples at all) also drifts open.
	c.Tick()
	c.Tick()
	if c.Level() != 0 {
		t.Fatalf("level = %d after idle ticks, want 0", c.Level())
	}
}

// TestBackoffDeterministic: two controllers with the same seed advise
// identical backoff sequences; the advice grows with the shed level and
// respects the cap.
func TestBackoffDeterministic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	mk := func(seed int64) *Controller {
		return New("t", Config{BackoffBase: 100 * time.Millisecond, Seed: seed})
	}
	a, b := mk(7), mk(7)
	for i := 0; i < 32; i++ {
		cl := Class(i % NumClasses)
		if da, db := a.Backoff(cl), b.Backoff(cl); da != db {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, da, db)
		}
	}
	other := mk(8)
	same := 0
	for i := 0; i < 16; i++ {
		if mkd, od := a.Backoff(ClassRegistration), other.Backoff(ClassRegistration); mkd == od {
			same++
		}
	}
	if same == 16 {
		t.Fatal("different seeds produced identical backoff schedules")
	}
	// Level scaling: higher level, longer advice (modulo ±20% jitter,
	// level 3 vs level 0 is 8x apart, far beyond jitter).
	lvl0 := a.Backoff(ClassRegistration)
	a.level.Store(3)
	lvl3 := a.Backoff(ClassRegistration)
	if lvl3 <= lvl0 {
		t.Fatalf("backoff at level 3 (%v) not above level 0 (%v)", lvl3, lvl0)
	}
	if max := 5 * time.Second * 12 / 10; lvl3 > max {
		t.Fatalf("backoff %v exceeded cap+jitter %v", lvl3, max)
	}
}

// TestRecoveryStacks: nested EnterRecovery calls require matching exits
// before admission re-opens.
func TestRecoveryStacks(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := New("t", Config{})
	c.EnterRecovery()
	c.EnterRecovery()
	if c.Admit(ClassRegistration) {
		t.Fatal("registration admitted during recovery")
	}
	c.ExitRecovery()
	if c.Admit(ClassRegistration) {
		t.Fatal("registration admitted with one recovery still active")
	}
	c.ExitRecovery()
	if !c.Admit(ClassRegistration) {
		t.Fatal("registration still shed after recovery fully exited")
	}
	c.Release(ClassRegistration)
}

// TestAdmitAllocFree asserts the admission fast path performs zero
// allocations — the property that keeps the gate safe to run on every
// ingress message of a storm.
func TestAdmitAllocFree(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := New("t", Config{Caps: [NumClasses]int64{ClassRegistration: 64}})
	allocs := testing.AllocsPerRun(10000, func() {
		if c.Admit(ClassRegistration) {
			c.Release(ClassRegistration)
		}
	})
	if allocs != 0 {
		t.Fatalf("Admit/Release allocates %.2f allocs/op, want 0", allocs)
	}
	// The shed path must also be allocation-free (it runs hottest).
	c.level.Store(NumLevels - 1)
	allocs = testing.AllocsPerRun(10000, func() {
		if c.Admit(ClassRegistration) {
			c.Release(ClassRegistration)
		}
	})
	if allocs != 0 {
		t.Fatalf("shed path allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestNilControllerAdmitsEverything: a nil *Controller is the disabled
// gate; every method must be safe and permissive.
func TestNilControllerAdmitsEverything(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	var c *Controller
	if !c.Admit(ClassRegistration) {
		t.Fatal("nil controller shed work")
	}
	c.Release(ClassRegistration)
	c.Observe(time.Millisecond)
	c.Tick()
	c.EnterRecovery()
	c.ExitRecovery()
	c.Start(time.Millisecond)
	c.Stop()
	if c.Backoff(ClassSession) != 0 {
		t.Fatal("nil controller advised a backoff")
	}
	if c.Level() != 0 || c.Depth(ClassDrain) != 0 {
		t.Fatal("nil controller reported state")
	}
}

// BenchmarkAdmitRelease is the -benchmem gate target: `make storm-smoke`
// runs it with -benchmem; the paired test above hard-asserts 0 allocs.
func BenchmarkAdmitRelease(b *testing.B) {
	c := New("bench", Config{Caps: [NumClasses]int64{ClassRegistration: 1024}})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if c.Admit(ClassRegistration) {
				c.Release(ClassRegistration)
			}
		}
	})
}
