package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"github.com/stslib/sts/client"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stream"
)

// streamPlan is stream_durable's append schedule. Pair events alternate
// an original and its twin: the original's walk continues from its own
// last sample and the twin gets the same samples with sensor noise half a
// second later, so watched pairs stay co-located.
type streamPlan struct {
	pairs   [][2]string
	walkers []*walker
	pending [][]model.Sample
	rng     *rand.Rand
}

// sampleGap is the stream-time spacing of appended samples: the
// generator's report period.
const sampleGap = 15.0

func newStreamPlan(c corpus, pairs int, rng *rand.Rand) *streamPlan {
	byID := make(map[string]model.Trajectory, len(c.trs))
	for _, tr := range c.trs {
		byID[tr.ID] = tr
	}
	p := &streamPlan{rng: rng}
	for _, pr := range c.pairs[:min(pairs, len(c.pairs))] {
		p.pairs = append(p.pairs, pr)
		p.walkers = append(p.walkers, newWalker(byID[pr[0]], rng))
	}
	p.pending = make([][]model.Sample, len(p.pairs))
	return p
}

// event returns the i-th append of the schedule.
func (p *streamPlan) event(i int) (string, []model.Sample) {
	k := (i / 2) % len(p.pairs)
	if i%2 == 0 {
		s := p.walkers[k].next(appendSamples, sampleGap, math.Inf(-1), p.rng)
		p.pending[k] = s
		return p.pairs[k][0], s
	}
	orig := p.pending[k]
	s := make([]model.Sample, len(orig))
	for j, o := range orig {
		s[j] = model.Sample{
			Loc: geo.Point{X: o.Loc.X + p.rng.NormFloat64()*twinNoise, Y: o.Loc.Y + p.rng.NormFloat64()*twinNoise},
			T:   o.T + 0.5,
		}
	}
	return p.pairs[k][1], s
}

// horizon bounds the stream time n scheduled appends can reach, given
// the corpus's latest sample time.
func (p *streamPlan) horizon(n int, last float64) float64 {
	perID := (n + 2*len(p.pairs) - 1) / (2 * len(p.pairs))
	return last + float64(perID*appendSamples)*sampleGap + 1
}

// appendLoop is the open-loop appender: append i is due at start +
// i/rate whatever the state of earlier appends, and its latency counts
// from that due time. Lateness behind the schedule is recorded as lag.
func (g loadgen) appendLoop(ctx context.Context, cl *client.Client, plan *streamPlan, rate float64, start, until time.Time, acked ackLog) *tally {
	t := &tally{}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return t
		}
		sleepUntil(ctx, due)
		if ctx.Err() != nil {
			return t
		}
		t.lag = append(t.lag, float64(time.Since(due))/1e6)
		id, samples := plan.event(i)
		g.do(ctx, t, opAppend, due, func(ctx context.Context) error {
			return appendChecked(ctx, cl, id, samples, acked)
		})
	}
}

// sweeps counts the retention sweeps of one phase.
type sweeps struct {
	n, failed      int
	trimmed, drops int
	removed        int
	// cutoff is the latest cutoff a sweep applied (-Inf before any):
	// samples older than it are legitimately gone.
	cutoff float64
}

// retainLoop is stsserved's -retention loop on the stream clock: every
// period it trims samples older than retention stream seconds behind the
// newest appended sample.
func retainLoop(ctx context.Context, eng engine.Service, reg *stream.Registry, retention float64, period time.Duration) sweeps {
	sw := sweeps{cutoff: math.Inf(-1)}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return sw
		case <-tick.C:
		}
		hw, ok := reg.HighWater()
		if !ok {
			continue
		}
		cutoff := hw - retention
		st, err := eng.TrimBefore(cutoff)
		sw.n++
		if err != nil {
			sw.failed++
			continue
		}
		sw.cutoff = math.Max(sw.cutoff, cutoff)
		sw.trimmed += st.Trimmed
		sw.drops += st.DroppedSamples
		sw.removed += st.Removed
	}
}
