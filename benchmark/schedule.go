package main

import (
	"math/rand"
	"time"
)

// thinkSlots is how many think times each client draws up front; the
// client cycles through them.
const thinkSlots = 4096

// schedule is everything the seed decides: the order flows are visited
// in, the order each event client walks its disjoint share of the
// subscriber population, and the jitter on each think time. The core
// never sees the seed, only the inputs generated from it.
type schedule struct {
	flows []int
	subs  [][]int
	think [][]time.Duration
}

func newSchedule(wl *workload, seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{flows: rng.Perm(wl.Flows)}
	per := eventPopulation / wl.Clients
	for c := 0; c < wl.Clients; c++ {
		subs := make([]int, per)
		for i, p := range rng.Perm(per) {
			subs[i] = eventBase + c*per + p
		}
		think := make([]time.Duration, thinkSlots)
		for i := range think {
			// uniform in [0.5, 1.5) x Think
			think[i] = time.Duration((0.5 + rng.Float64()) * float64(wl.Think))
		}
		s.subs = append(s.subs, subs)
		s.think = append(s.think, think)
	}
	return s
}
