package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/stslib/sts/client"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/store"
)

// gates tallies the correctness checks run outside the timed phases.
type gates struct {
	attempted, failed int
	failures          []string
}

func (g *gates) check(err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.failures) < 5 {
			g.failures = append(g.failures, err.Error())
		}
	}
}

// exact checks a seeded sample of served top-k answers against exhaustive
// exact scoring on the same engine: same IDs, same order, bit-identical
// scores.
func (g *gates) exact(ctx context.Context, cl *client.Client, eng engine.Service, ids []string, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		g.check(exactTopK(ctx, cl, eng, ids[rng.Intn(len(ids))]))
	}
}

func exactTopK(ctx context.Context, cl *client.Client, eng engine.Service, id string) error {
	got, err := cl.TopK(ctx, id, topK)
	if err != nil {
		return fmt.Errorf("exact gate: topk %s: %w", id, err)
	}
	q, ok := eng.Get(id)
	if !ok {
		return fmt.Errorf("exact gate: %s not resident", id)
	}
	all, err := eng.TopKOpts(ctx, q, engine.TopKOptions{K: topK + 1, MinScore: math.Inf(-1), Exhaustive: true})
	if err != nil {
		return fmt.Errorf("exact gate: exhaustive %s: %w", id, err)
	}
	var want []engine.Match
	for _, m := range all {
		if len(want) == topK {
			break
		}
		if m.ID == id || math.IsInf(m.Score, 0) || math.IsNaN(m.Score) {
			continue
		}
		want = append(want, m)
	}
	if len(want) != len(got.Matches) {
		return fmt.Errorf("exact gate: topk %s served %d matches, exhaustive finds %d", id, len(got.Matches), len(want))
	}
	for i, m := range want {
		s := got.Matches[i]
		if s.ID != m.ID || math.Float64bits(s.Score) != math.Float64bits(m.Score) {
			return fmt.Errorf("exact gate: topk %s rank %d served %s=%v, exhaustive %s=%v", id, i, s.ID, s.Score, m.ID, m.Score)
		}
	}
	return nil
}

// visible checks that every acknowledged append's samples are present
// through Get, except those a retention sweep has since cut: samples
// older than cutoff.
func (g *gates) visible(ctx context.Context, cl *client.Client, acked ackLog, cutoff float64) {
	for _, id := range acked.ids() {
		g.check(visibleAppends(ctx, cl, id, acked[id], cutoff))
	}
}

func visibleAppends(ctx context.Context, cl *client.Client, id string, times []float64, cutoff float64) error {
	tr, err := cl.Get(ctx, id)
	if err != nil {
		return fmt.Errorf("visibility gate: get %s: %w", id, err)
	}
	have := make(map[float64]bool, len(tr.Samples))
	for _, s := range tr.Samples {
		have[s[0]] = true
	}
	for _, t := range times {
		if t >= cutoff && !have[t] {
			return fmt.Errorf("visibility gate: %s lost acknowledged sample t=%v", id, t)
		}
	}
	return nil
}

// counts returns every resident trajectory's sample count.
func counts(eng engine.Service) (map[string]int, int) {
	out := make(map[string]int)
	total := 0
	for _, id := range eng.IDs() {
		if tr, ok := eng.Get(id); ok {
			out[id] = len(tr.Samples)
			total += len(tr.Samples)
		}
	}
	return out, total
}

// recovered checks that reopening the closed shard directories recovers
// exactly want: the same IDs with the same sample counts.
func (g *gates) recovered(dir string, shards int, want map[string]int) {
	got := make(map[string]int)
	var err error
	for i := 0; i < shards && err == nil; i++ {
		d := dir
		if shards > 1 {
			d = store.ShardDir(dir, i)
		}
		var st *store.Store
		if st, err = store.Open(d, store.Options{Logger: discardLog}); err != nil {
			break
		}
		err = st.ForEach(func(ref store.Ref) error {
			got[ref.ID] = ref.N
			return nil
		})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = diffCounts(want, got)
	}
	if err != nil {
		err = fmt.Errorf("recovery gate: %w", err)
	}
	g.check(err)
}

func diffCounts(want, got map[string]int) error {
	var bad []string
	for id, n := range want {
		if got[id] != n {
			bad = append(bad, fmt.Sprintf("%s: %d samples, recovered %d", id, n, got[id]))
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			bad = append(bad, id+": recovered but was not resident")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%d trajectories differ, first %s", len(bad), bad[0])
}
