package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"l25gc/internal/pkt"
)

// The steps of one UE cycle, in order. Each is timed by the harness
// around the call it makes.
const (
	stepReg = iota
	stepSess
	stepHO
	stepIdle
	stepPaging
	stepDereg
	numSteps
)

var stepNames = [numSteps]string{"reg", "sess", "ho", "idle", "paging", "dereg"}

var pokePayload = []byte("l25b-poke")

// pagingTimeout bounds the wait for the network to page an idle UE.
const pagingTimeout = 3 * time.Second

// cycleHooks lets a caller observe the steps of a cycle: the traced pass
// wraps each in a root span, the timed runs leave it nil.
type cycleHooks struct {
	begin func(step int)
	end   func(step int)
}

// runCycle takes one fresh UE through register -> session -> handover ->
// idle -> DL poke -> paged reconnect -> deregister on rig r. think(step)
// runs before each step; lat receives each completed step's duration. It
// returns the step that failed, or -1.
func runCycle(r *rig, idx int, think func(step int), lat func(step int, d time.Duration), hooks *cycleHooks) (failed int, err error) {
	ue := newUE(idx)
	var poked atomic.Int32
	ue.OnData = func(ip []byte) {
		if len(ip) >= ipUDPLen && bytes.Equal(ip[ipUDPLen:], pokePayload) {
			poked.Add(1)
		}
	}
	g1, g2 := r.gnbs[0], r.gnbs[1]
	steps := [numSteps]func() error{
		stepReg:  func() error { _, err := ue.Register(g1); return err },
		stepSess: func() error { _, err := ue.EstablishSession(5, "internet"); return err },
		stepHO:   func() error { _, err := ue.Handover(g2); return err },
		stepIdle: ue.GoIdle,
		stepPaging: func() error {
			buf := make([]byte, ipUDPLen+len(pokePayload))
			n, err := pkt.BuildUDPv4(buf, dnAddr, ue.IP(), dnPort, uePort, 0, pokePayload)
			if err != nil {
				return err
			}
			if err := r.core.InjectDL(buf[:n]); err != nil {
				return fmt.Errorf("poke: %w", err)
			}
			_, err = ue.AwaitPagingAndReconnect(pagingTimeout)
			return err
		},
		stepDereg: ue.Deregister,
	}
	for step, fn := range steps {
		if think != nil {
			think(step)
		}
		if step == stepDereg {
			// The parked poke must reach the UE once it is connected
			// again; deregistering first would tear its tunnel down.
			if !waitFor(time.Second, func() bool { return poked.Load() > 0 }) {
				return stepPaging, fmt.Errorf("buffered DL packet never delivered after paging")
			}
		}
		if hooks != nil {
			hooks.begin(step)
		}
		start := time.Now()
		err := fn()
		d := time.Since(start)
		if hooks != nil {
			hooks.end(step)
		}
		if err != nil {
			return step, fmt.Errorf("%s: %w", stepNames[step], err)
		}
		if lat != nil {
			lat(step, d)
		}
	}
	return -1, nil
}

// evClient is one closed-loop event client: its next step starts when
// the previous one completes (plus think time).
type evClient struct {
	id    int
	subs  []int           // subscriber indices, in seeded order
	think []time.Duration // seeded per-step think times, cycled

	lat       [numSteps][]int64 // ns
	cycles    int
	attempted int
	failed    int
	errs      []string
}

// eventStream is the event half of a workload.
type eventStream struct {
	r       *rig
	clients []*evClient
	stopCh  chan struct{}
	wg      sync.WaitGroup
	cycles  atomic.Int64 // completed so far
}

func newEventStream(r *rig, sch *schedule) *eventStream {
	es := &eventStream{r: r, stopCh: make(chan struct{})}
	for i := range sch.subs {
		c := &evClient{id: i, subs: sch.subs[i], think: sch.think[i]}
		for s := range c.lat {
			c.lat[s] = make([]int64, 0, 1<<14)
		}
		es.clients = append(es.clients, c)
	}
	return es
}

func (es *eventStream) start() {
	for _, c := range es.clients {
		es.wg.Add(1)
		go es.runClient(c)
	}
}

// stop lets every client finish the cycle it is in, so no event UE is
// left half-attached when the invariants are checked.
func (es *eventStream) stop() {
	close(es.stopCh)
	es.wg.Wait()
}

func (es *eventStream) stopping() bool {
	select {
	case <-es.stopCh:
		return true
	default:
		return false
	}
}

func (es *eventStream) runClient(c *evClient) {
	defer es.wg.Done()
	var nthink int
	think := func(int) {
		d := c.think[nthink%len(c.think)]
		nthink++
		if d <= 0 || es.stopping() {
			return
		}
		select {
		case <-time.After(d):
		case <-es.stopCh:
		}
	}
	for n := 0; !es.stopping(); n++ {
		var steps int
		lat := func(step int, d time.Duration) {
			steps++
			c.lat[step] = append(c.lat[step], int64(d))
		}
		failed, err := runCycle(es.r, c.subs[n%len(c.subs)], think, lat, nil)
		c.attempted += steps
		if err != nil {
			c.attempted++
			c.failed++
			if len(c.errs) < 5 {
				c.errs = append(c.errs, fmt.Sprintf("client %d cycle %d step %s: %v", c.id, n, stepNames[failed], err))
			}
			continue
		}
		c.cycles++
		es.cycles.Add(1)
	}
}
