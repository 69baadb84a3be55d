package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/client"
	"github.com/stslib/sts/internal/model"
)

// topK is the k of every top-k request.
const topK = 10

// topkShare is the top-k share of the closed-loop read mix; the rest is
// pairwise similarity.
const topkShare = 0.8

// appendSamples is the number of samples per append request.
const appendSamples = 5

type opKind int

const (
	opTopK opKind = iota
	opSimilarity
	opAppend
	numOps
)

var opNames = [numOps]string{"topk", "similarity", "append"}

// errWrong marks an answer that failed its check.
var errWrong = errors.New("wrong answer")

// obs is one successful operation's latency and the measurement round it
// fell in.
type obs struct {
	round int
	ms    float64
}

// tally is one load generator's record; each goroutine keeps its own and
// they are merged after the phase.
type tally struct {
	lat       [numOps][]obs // successful operations
	attempted [numOps]int
	failed    [numOps]int
	retries   int
	refused   int
	lag       []float64 // ms, open-loop lateness behind the schedule
	failures  []string  // the first few failure descriptions
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
		t.attempted[k] += o.attempted[k]
		t.failed[k] += o.failed[k]
	}
	t.retries += o.retries
	t.refused += o.refused
	t.lag = append(t.lag, o.lag...)
	for _, f := range o.failures {
		t.fail(f)
	}
}

func (t *tally) fail(desc string) {
	if len(t.failures) < 5 {
		t.failures = append(t.failures, desc)
	}
}

func (t *tally) ops() (attempted, failed int) {
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return attempted, failed
}

// completed counts successful operations of every kind.
func (t *tally) completed() int {
	n := 0
	for _, l := range t.lat {
		n += len(l)
	}
	return n
}

// completedMS is every successful operation's latency, ms.
func (t *tally) completedMS() []float64 {
	var all []float64
	for k := range t.lat {
		all = append(all, latencies(t.lat[k])...)
	}
	return all
}

// latencies is the pooled ms of a series.
func latencies(series []obs) []float64 {
	out := make([]float64, len(series))
	for i, o := range series {
		out[i] = o.ms
	}
	return out
}

// byRound splits a series into its rounds.
func byRound(series []obs, rounds int) [][]float64 {
	out := make([][]float64, rounds)
	for _, o := range series {
		out[o.round] = append(out[o.round], o.ms)
	}
	return out
}

// loadgen issues client operations, timing each from when it was due and
// recording a client span per operation when tracing.
type loadgen struct {
	tr *tracer
	// An operation's measurement round is round, or with roundLen set,
	// the slice of roundLen after start its due time falls in.
	round    int
	start    time.Time
	roundLen time.Duration
}

func (g loadgen) roundOf(t time.Time) int {
	if g.roundLen <= 0 {
		return g.round
	}
	return min(max(int(t.Sub(g.start)/g.roundLen), 0), rounds-1)
}

// do runs one operation. call returns errWrong (wrapped) when the answer
// fails its check. A refused attempt fails the operation even if a retry
// later succeeds.
func (g loadgen) do(ctx context.Context, t *tally, kind opKind, due time.Time, call func(ctx context.Context) error) {
	st := &opState{}
	var o *openSpan
	if g.tr != nil {
		o = g.tr.begin(nil, layerClient, opNames[kind])
		st.span = o.s.id
	}
	err := call(withOp(ctx, st))
	lat := time.Since(due)
	if o != nil {
		o.end()
	}
	t.attempted[kind]++
	t.retries += max(st.attempts-1, 0)
	t.refused += st.refused
	switch {
	case err != nil:
		t.failed[kind]++
		t.fail(fmt.Sprintf("%s: %v", opNames[kind], err))
	case st.refused > 0:
		t.failed[kind]++
		t.fail(fmt.Sprintf("%s: refused %d time(s) before succeeding", opNames[kind], st.refused))
	default:
		t.lat[kind] = append(t.lat[kind], obs{round: g.roundOf(due), ms: float64(lat) / 1e6})
	}
}

// readMix is the closed-loop read workload: top-k over ids and similarity
// over pairs. expect, when set, holds every pair's exact score (nil for
// a pair without a finite score); it is nil when appends change answers
// during the phase. think is the pause between an answer and the next
// request.
type readMix struct {
	ids    []string
	pairs  [][2]string
	expect map[[2]string]*float64
	think  time.Duration
}

// readLoop is one closed-loop client: the next request goes out when the
// previous answer is in, until the deadline.
func (g loadgen) readLoop(ctx context.Context, cl *client.Client, mix readMix, rng *rand.Rand, until time.Time, t *tally) {
	for first := true; ; first = false {
		if !first && mix.think > 0 {
			sleepUntil(ctx, time.Now().Add(mix.think))
		}
		now := time.Now()
		if !now.Before(until) || ctx.Err() != nil {
			return
		}
		if rng.Float64() < topkShare {
			id := mix.ids[rng.Intn(len(mix.ids))]
			g.do(ctx, t, opTopK, now, func(ctx context.Context) error {
				resp, err := cl.TopK(ctx, id, topK)
				if err != nil {
					return err
				}
				return checkTopK(id, resp)
			})
			continue
		}
		p := mix.pairs[rng.Intn(len(mix.pairs))]
		g.do(ctx, t, opSimilarity, now, func(ctx context.Context) error {
			resp, err := cl.Similarity(ctx, p[0], p[1])
			if err != nil {
				return err
			}
			return checkSimilarity(p, resp, mix.expect)
		})
	}
}

// runReaders runs n closed-loop readers sharing cl until the deadline.
func (g loadgen) runReaders(ctx context.Context, cl *client.Client, mix readMix, n int, seed int64, until time.Time) *tally {
	tallies := make([]*tally, n)
	var wg sync.WaitGroup
	for i := range tallies {
		tallies[i] = &tally{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.readLoop(ctx, cl, mix, rand.New(rand.NewSource(seed+int64(i))), until, tallies[i])
		}(i)
	}
	wg.Wait()
	out := &tally{}
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

func checkTopK(id string, resp api.TopKResponse) error {
	if resp.Query != id || len(resp.Matches) > topK {
		return fmt.Errorf("%w: topk %s answered query %q with %d matches", errWrong, id, resp.Query, len(resp.Matches))
	}
	seen := make(map[string]bool, len(resp.Matches))
	prev := math.Inf(1)
	for _, m := range resp.Matches {
		if m.ID == id || seen[m.ID] || !(m.Score >= 0 && m.Score <= 1) || m.Score > prev {
			return fmt.Errorf("%w: topk %s: bad match %s=%v", errWrong, id, m.ID, m.Score)
		}
		seen[m.ID] = true
		prev = m.Score
	}
	return nil
}

func checkSimilarity(p [2]string, resp api.SimilarityResponse, expect map[[2]string]*float64) error {
	if resp.A != p[0] || resp.B != p[1] {
		return fmt.Errorf("%w: similarity %v answered %s/%s", errWrong, p, resp.A, resp.B)
	}
	if resp.Score != nil && !(*resp.Score >= 0 && *resp.Score <= 1) {
		return fmt.Errorf("%w: similarity %v = %v", errWrong, p, *resp.Score)
	}
	if expect == nil {
		return nil
	}
	want, got := expect[p], resp.Score
	if (want == nil) != (got == nil) || (want != nil && math.Float64bits(*want) != math.Float64bits(*got)) {
		return fmt.Errorf("%w: similarity %v = %v, exact scoring says %v", errWrong, p, fmtScore(got), fmtScore(want))
	}
	return nil
}

func fmtScore(s *float64) string {
	if s == nil {
		return "none"
	}
	return fmt.Sprint(*s)
}

// ackLog records the samples of every acknowledged append.
type ackLog map[string][]float64

func (a ackLog) add(id string, samples []model.Sample) {
	for _, s := range samples {
		a[id] = append(a[id], s.T)
	}
}

func (a ackLog) ids() []string {
	out := make([]string, 0, len(a))
	for id := range a {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// pointProbe is a closed-loop single-connection phase with nothing else
// running: it alternates a similarity request over the mix's pairs with an
// append to a resident trajectory drawn from targets, each append
// continuing the trajectory's walk (kept in walkers across calls) past its
// last sample. targets must not include any pair member, so the pairs'
// exact scores stay valid.
func (g loadgen) pointProbe(ctx context.Context, cl *client.Client, mix readMix, targets []model.Trajectory, walkers map[string]*walker, rng *rand.Rand, until time.Time, acked ackLog) *tally {
	t := &tally{}
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(until) || ctx.Err() != nil {
			return t
		}
		if i%2 == 0 {
			p := mix.pairs[rng.Intn(len(mix.pairs))]
			g.do(ctx, t, opSimilarity, now, func(ctx context.Context) error {
				resp, err := cl.Similarity(ctx, p[0], p[1])
				if err != nil {
					return err
				}
				return checkSimilarity(p, resp, mix.expect)
			})
			continue
		}
		tr := targets[rng.Intn(len(targets))]
		w := walkers[tr.ID]
		if w == nil {
			w = newWalker(tr, rng)
			walkers[tr.ID] = w
		}
		samples := w.next(appendSamples, sampleGap, math.Inf(-1), rng)
		g.do(ctx, t, opAppend, now, func(ctx context.Context) error {
			return appendChecked(ctx, cl, tr.ID, samples, acked)
		})
	}
}

func appendChecked(ctx context.Context, cl *client.Client, id string, samples []model.Sample, acked ackLog) error {
	resp, err := cl.Append(ctx, id, wire(samples))
	if err != nil {
		return err
	}
	if resp.ID != id || resp.N < len(samples) {
		return fmt.Errorf("%w: append %s acknowledged as %s with %d samples", errWrong, id, resp.ID, resp.N)
	}
	acked.add(id, samples)
	return nil
}

// sleepUntil waits for t or ctx.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
