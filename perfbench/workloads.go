package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/client"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
	"github.com/stslib/sts/internal/stream"
)

// workload is one traffic mix over one corpus.
type workload struct {
	name string
	// total is the corpus size, twins included.
	total   int
	durable bool
	// setupReps is how many times one run sets the service up; setup_s
	// is their median.
	setupReps int
	// tail fixes, per operation, the percentile reported as *_tail_ms.
	// It is p90, which leaves at least minBeyond samples above it at the
	// benchmark's run length (BENCHMARK.json run_seconds), or lower where
	// a run completes too few operations. A p99 also leaves 10 beyond on
	// some series, but across seeds on a shared 2-vCPU host it spread
	// 40-50%, beyond any usable regression bound.
	tail [numOps]float64
	// gateQueries is how many seeded top-k answers each exactness gate
	// checks against exhaustive scoring.
	gateQueries int
}

// The profile LRU holds engine.DefaultCacheSize profiles split across the
// shards. serve_hot's corpus is 3/4 of it, serve_overcache's 3/2.
var workloads = map[string]workload{
	"serve_hot": {
		name: "serve_hot", total: 3 * engine.DefaultCacheSize / 4, setupReps: 3,
		tail:        [numOps]float64{opTopK: 0.90, opSimilarity: 0.90, opAppend: 0.90},
		gateQueries: 8,
	},
	"serve_overcache": {
		name: "serve_overcache", total: 3 * engine.DefaultCacheSize / 2, setupReps: 3,
		// About 60 top-k requests complete per run: p80 is the highest
		// percentile in steps of ten that leaves 10 beyond it.
		tail:        [numOps]float64{opTopK: 0.80, opSimilarity: 0.90, opAppend: 0.90},
		gateQueries: 4,
	},
	"stream_durable": {
		name: "stream_durable", total: 3 * engine.DefaultCacheSize / 4, durable: true, setupReps: 5,
		// The readers complete only about 130 similarity requests per run:
		// a p90 leaves 13 beyond it and spread 27% across seeds, p80 leaves
		// 26.
		tail:        [numOps]float64{opTopK: 0.90, opSimilarity: 0.80, opAppend: 0.90},
		gateQueries: 8,
	},
}

// rounds is how many measurement rounds a run's timed load is split
// into; each p50 and rate is the median of the rounds' values.
const rounds = 5

// Phase shares: of each serve round, the read mix's (the point probe runs
// the rest); and the untimed warm-up's share of --seconds.
const (
	serveReadShare = 0.85
	warmupShare    = 0.1
)

// stream_durable's knobs.
const (
	// appendRate is the open-loop append rate, well below the append
	// route's capacity with the standing watch.
	appendRate = 40.0
	// streamPairs is the number of co-located pairs appended to; the
	// twins are the standing watch's members.
	streamPairs = 64
	// watchTheta is the standing watch's alert threshold.
	watchTheta = 0.05
	// snapshotEvery is the lowered automatic-snapshot threshold (WAL
	// bytes per shard) that lands several snapshots and sidecar writes in
	// each run.
	snapshotEvery = 128 << 10
	// sweepPeriod is the retention sweep period: stsserved's shortest.
	sweepPeriod = time.Second
	// readThink is the readers' pause between an answer and the next
	// request, about one top-k's latency. Without it the closed-loop
	// readers saturate both cores and every append queues behind them:
	// the appends' latency then measured the queue, and swung 20-40% from
	// run to run with the host's speed.
	readThink = 20 * time.Millisecond
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	nproc   int
	work    string // scratch directory inside the checkout
	tracer  *tracer
}

// counters is a point-in-time copy of the program's own counters.
type counters struct {
	prep, prof engine.CacheStats
	prune      engine.PruneStats
	store      store.Stats
	stream     stream.Stats
	gc         runtime.MemStats
}

func readCounters(s *service) counters {
	c := counters{
		prep:   s.inner.CacheStats(),
		prof:   s.inner.ProfileCacheStats(),
		prune:  s.inner.PruneStats(),
		store:  s.inner.StoreStats(),
		stream: s.watches.Stats(),
	}
	runtime.ReadMemStats(&c.gc)
	return c
}

// result is everything one run of a workload measured.
type result struct {
	setup []float64 // seconds, one per set-up
	load  tally     // timed phases, merged
	// series are the latencies each *_p50_ms/*_tail_ms reports: on the
	// serve workloads top-k from the read mix, similarity and append from
	// the point probe; on stream_durable the whole load.
	series [numOps][]obs
	// rates are completed operations per second in each round: of the
	// read mix on the serve workloads, of the whole load on
	// stream_durable.
	rates    []float64
	seconds  float64 // wall time of the timed phases
	heapMB   float64
	bytesPer float64 // stored corpus bytes per resident sample
	gates    gates
	before   counters // at the start of the timed phases
	after    counters // at their end
	samples  int      // resident samples at the end
	warm     int      // profiles warm-loaded by the last set-up
	recovery store.RecoveryInfo
	sweeps   sweeps
	spans    []span
	notes    []string
}

func run(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	if w.durable {
		return runStream(ctx, w, cfg)
	}
	return runServe(ctx, w, cfg)
}

// ingest loads the corpus over HTTP with PutBatch from nproc concurrent
// senders sharing one client.
func ingest(ctx context.Context, cl *client.Client, c corpus, senders int) error {
	batches := c.batches(256)
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(batches) && errs[s] == nil; i += senders {
				_, errs[s] = cl.PutBatch(ctx, batches[i])
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}
	return nil
}

// firstAnswer waits for one answered top-k query: the end of set-up.
func firstAnswer(ctx context.Context, cl *client.Client, id string) error {
	resp, err := cl.TopK(ctx, id, topK)
	if err == nil {
		err = checkTopK(id, resp)
	}
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	return nil
}

// finish records the post-load state every workload reports; secs is the
// wall time of the timed phases.
func (r *result) finish(s *service, load *tally, secs float64) {
	r.seconds = secs
	r.load.merge(load)
	r.after = readCounters(s)
}

// readHeap records the live heap after a forced GC.
func (r *result) readHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
}

// ---- serve_hot, serve_overcache ----

func runServe(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	c := genCorpus(cfg.seed, w.total)
	r := &result{}
	reps := w.setupReps
	if cfg.tracer != nil {
		reps = 1
	}
	var (
		svc *service
		cl  *client.Client
	)
	for rep := 0; rep < reps; rep++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, err
			}
			svc = nil
		}
		runtime.GC()
		start := time.Now()
		s, err := startService(serviceConfig{bounds: c.bounds, tracer: cfg.tracer})
		if err != nil {
			return nil, err
		}
		svc = s
		cl, err = clientFor(svc.url, cfg.nproc)
		if err == nil {
			err = ingest(ctx, cl, c, cfg.nproc)
		}
		if err == nil {
			err = firstAnswer(ctx, cl, c.trs[0].ID)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		if err != nil {
			svc.close()
			return nil, err
		}
	}
	defer svc.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	ids := make([]string, len(c.trs))
	for i, tr := range c.trs {
		ids[i] = tr.ID
	}
	mix := readMix{ids: ids, pairs: similarityPairs(c, rng, 256)}
	expect, err := exactScores(ctx, svc.inner, mix.pairs)
	if err != nil {
		return nil, err
	}
	mix.expect = expect

	g := loadgen{tr: cfg.tracer}
	g.runReaders(ctx, cl, mix, cfg.nproc, cfg.seed+1000, time.Now().Add(seconds(cfg.seconds*warmupShare)))

	// Rounds alternate the read mix and the point probe, so a slow spell
	// of the machine lands in both and the per-round medians outvote it.
	// Each probe starts after a forced GC, once the mix's last requests are
	// in, and runs for its full share.
	runtime.GC()
	r.before = readCounters(svc)
	acked := ackLog{}
	walkers := make(map[string]*walker)
	targets := nonMembers(c.trs, mix.pairs)
	roundLen := cfg.seconds / rounds
	reads, points := &tally{}, &tally{}
	var secs float64
	for i := 0; i < rounds; i++ {
		g.round = i
		from := time.Now()
		t := g.runReaders(ctx, cl, mix, cfg.nproc, cfg.seed+2000+int64(16*i), from.Add(seconds(serveReadShare*roundLen)))
		mixSecs := time.Since(from).Seconds()
		r.rates = append(r.rates, float64(t.completed())/mixSecs)
		reads.merge(t)
		runtime.GC()
		from = time.Now()
		points.merge(g.pointProbe(ctx, cl, mix, targets, walkers, rng, from.Add(seconds((1-serveReadShare)*roundLen)), acked))
		secs += mixSecs + time.Since(from).Seconds()
	}
	r.series = [numOps][]obs{opTopK: reads.lat[opTopK], opSimilarity: points.lat[opSimilarity], opAppend: points.lat[opAppend]}
	mixSim := latencies(reads.lat[opSimilarity])
	r.notes = append(r.notes, fmt.Sprintf("read-mix similarity (not reported): samples=%d p50=%.4g p90=%.4g ms",
		len(mixSim), percentile(mixSim, 0.5), percentile(mixSim, 0.9)))
	reads.merge(points)
	r.finish(svc, reads, secs)
	r.readHeap()
	r.gates.visible(ctx, cl, acked, math.Inf(-1))
	r.gates.exact(ctx, cl, svc.inner, ids, w.gateQueries, rng)

	_, r.samples = counts(svc.inner)
	r.bytesPer = ratio(float64(r.after.store.LiveBytes), float64(r.samples))
	if cfg.tracer != nil {
		r.spans = cfg.tracer.snapshot()
	}
	return r, svc.close()
}

// similarityPairs draws 3n/4 co-located twin pairs and n/4 random pairs.
// A random pair rarely overlaps in time and scores far faster than a twin
// pair, so the mix must not be even: a median at the boundary of the two
// modes jumps between them from run to run.
func similarityPairs(c corpus, rng *rand.Rand, n int) [][2]string {
	out := make([][2]string, 0, n)
	for i := 0; i < 3*n/4; i++ {
		out = append(out, c.pairs[rng.Intn(len(c.pairs))])
	}
	for len(out) < n {
		a, b := c.trs[rng.Intn(len(c.trs))].ID, c.trs[rng.Intn(len(c.trs))].ID
		if a != b {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// exactScores scores every pair directly on the engine, as the
// similarity route does, for checking served answers.
func exactScores(ctx context.Context, eng engine.Service, pairs [][2]string) (map[[2]string]*float64, error) {
	out := make(map[[2]string]*float64, len(pairs))
	for _, p := range pairs {
		a, okA := eng.Get(p[0])
		b, okB := eng.Get(p[1])
		if !okA || !okB {
			return nil, fmt.Errorf("similarity pair %v not resident", p)
		}
		m, err := eng.ScoreBatch(ctx, model.Dataset{a}, model.Dataset{b}, nil)
		if err != nil {
			return nil, fmt.Errorf("exact similarity %v: %w", p, err)
		}
		if v := m[0][0]; !math.IsInf(v, 0) && !math.IsNaN(v) {
			out[p] = &v
		} else {
			out[p] = nil
		}
	}
	return out, nil
}

// ---- stream_durable ----

func runStream(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	c := genCorpus(cfg.seed, w.total)
	r := &result{}
	build := filepath.Join(cfg.work, "build")
	if err := buildDurable(ctx, c, build, cfg.nproc); err != nil {
		return nil, err
	}

	reps := w.setupReps
	if cfg.tracer != nil {
		reps = 1
	}
	var (
		svc *service
		cl  *client.Client
		dir string
	)
	for rep := 0; rep < reps; rep++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.work, fmt.Sprintf("restart-%d", rep))
		if err := copyDir(build, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		s, err := startService(serviceConfig{dataDir: dir, snapshotEvery: snapshotEvery, bounds: c.bounds, tracer: cfg.tracer})
		if err != nil {
			return nil, err
		}
		svc = s
		cl, err = clientFor(svc.url, cfg.nproc)
		if err == nil {
			err = firstAnswer(ctx, cl, c.trs[0].ID)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		if err != nil {
			svc.close()
			return nil, err
		}
	}
	defer svc.close()
	r.warm = svc.inner.WarmLoaded()
	r.recovery, _ = svc.inner.Recovery()

	rng := rand.New(rand.NewSource(cfg.seed))
	plan := newStreamPlan(c, streamPairs, rng)
	scheduled := int(appendRate*cfg.seconds) + 1
	// Retention trails the stream clock by the corpus's whole time span,
	// so sweeps cut the heads of the oldest trajectories as appends
	// advance the clock. Reads only ask for trajectories that outlive the
	// last possible cutoff.
	last := c.lastTime()
	retention := math.Ceil(last) + 1
	lastCutoff := plan.horizon(scheduled, last) - retention
	var ids []string
	for _, tr := range c.trs {
		if tr.Samples[len(tr.Samples)-1].T > lastCutoff+60 {
			ids = append(ids, tr.ID)
		}
	}
	mix := readMix{ids: ids, pairs: similarityPairs(c.restrict(ids), rng, 256), think: readThink}

	// One connection appends; the rest read.
	readers := max(cfg.nproc-1, 1)
	g := loadgen{tr: cfg.tracer}
	g.runReaders(ctx, cl, mix, readers, cfg.seed+1000, time.Now().Add(seconds(cfg.seconds*warmupShare)))

	runtime.GC()
	r.before = readCounters(svc)
	g.start, g.roundLen = time.Now(), seconds(cfg.seconds/rounds)
	until := g.start.Add(seconds(cfg.seconds))
	acked := ackLog{}
	var (
		wg                 sync.WaitGroup
		reads, appends     *tally
		sweepCtx, stopTrim = context.WithCancel(ctx)
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		reads = g.runReaders(ctx, cl, mix, readers, cfg.seed+2000, until)
	}()
	go func() {
		defer wg.Done()
		appends = g.appendLoop(ctx, cl, plan, appendRate, g.start, until, acked)
	}()
	go func() {
		defer wg.Done()
		r.sweeps = retainLoop(sweepCtx, svc.eng, svc.watches, retention, sweepPeriod)
	}()
	// The sweeps stop with the load; wait for the load first.
	sleepUntil(ctx, until)
	stopTrim()
	wg.Wait()
	reads.merge(appends)
	r.series = reads.lat
	secs := time.Since(g.start).Seconds()
	perRound := make([]int, rounds)
	for _, series := range reads.lat {
		for _, o := range series {
			perRound[o.round]++
		}
	}
	for _, n := range perRound {
		r.rates = append(r.rates, float64(n)/(secs/rounds))
	}
	r.finish(svc, reads, secs)
	if r.sweeps.failed > 0 {
		r.gates.check(fmt.Errorf("%d of %d retention sweeps failed", r.sweeps.failed, r.sweeps.n))
	}

	r.gates.exact(ctx, cl, svc.inner, ids, w.gateQueries, rng)
	r.gates.visible(ctx, cl, acked, r.sweeps.cutoff)
	if cfg.tracer != nil {
		r.spans = cfg.tracer.snapshot()
	}

	// Stored footprint after a final snapshot, then a cold reopen of the
	// closed directory must recover the same corpus. The snapshot also
	// waits out any background one, whose buffers would count as live heap.
	if err := svc.inner.Snapshot(); err != nil {
		r.gates.check(fmt.Errorf("final snapshot: %w", err))
	}
	r.readHeap()
	want, total := counts(svc.inner)
	r.samples = total
	if err := svc.close(); err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.bytesPer = ratio(float64(size), float64(total))
	r.gates.recovered(dir, numShards(), want)
	r.notes = append(r.notes, fmt.Sprintf("appends acknowledged for %d trajectories; %d retention sweeps trimmed %d, removed %d, dropped %d samples",
		len(acked), r.sweeps.n, r.sweeps.trimmed, r.sweeps.removed, r.sweeps.drops))
	return r, nil
}

// nonMembers is trs minus every member of pairs.
func nonMembers(trs []model.Trajectory, pairs [][2]string) []model.Trajectory {
	skip := make(map[string]bool, 2*len(pairs))
	for _, p := range pairs {
		skip[p[0]], skip[p[1]] = true, true
	}
	var out []model.Trajectory
	for _, tr := range trs {
		if !skip[tr.ID] {
			out = append(out, tr)
		}
	}
	return out
}

// buildDurable is stream_durable's untimed preparation: ingest the corpus
// into durable shard directories, register the standing watch over the
// twins of the streamed pairs, fill the profile cache with one query and
// snapshot, so restarts recover from a snapshot with a warm sidecar.
func buildDurable(ctx context.Context, c corpus, dir string, nproc int) error {
	svc, err := startService(serviceConfig{dataDir: dir, snapshotEvery: snapshotEvery, bounds: c.bounds})
	if err != nil {
		return err
	}
	cl, err := clientFor(svc.url, nproc)
	if err == nil {
		err = ingest(ctx, cl, c, nproc)
	}
	if err == nil {
		members := make([]string, 0, streamPairs)
		for _, p := range c.pairs[:min(streamPairs, len(c.pairs))] {
			members = append(members, p[1])
		}
		_, err = cl.WatchPut(ctx, api.Watch{Name: "mirrors", Members: members, Theta: watchTheta})
	}
	if err == nil {
		err = firstAnswer(ctx, cl, c.trs[0].ID)
	}
	if err == nil {
		err = svc.inner.Snapshot()
	}
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("build durable corpus: %w", err)
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
