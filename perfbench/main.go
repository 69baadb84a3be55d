// Command perfbench is the repository's serving benchmark. It runs one
// workload against an in-process service built the way stsserved builds it
// with default flags, served by server.Serve on a loopback listener and
// driven through the typed client, checks the answers, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload serve_hot --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced, then again with spans recorded around every layer boundary,
// and reports the per-layer ledger and the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/stslib/sts/internal/store"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve_hot, serve_overcache or stream_durable")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer ledger instead of the end-to-end metrics")
	work := flag.String("work", ".bench_build/work", "scratch directory for durable data and span dumps")
	flag.Parse()
	os.Exit(mainErr(*name, *seed, *secs, *trace == 1, *work))
}

func mainErr(name string, seed int64, secs float64, traced bool, work string) int {
	w, ok := workloads[name]
	if !ok || secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %v\n", name, secs)
		return 2
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: seed, seconds: secs, nproc: runtime.NumCPU(), work: filepath.Join(dir, "plain")}
	printEnv(w, cfg)
	ctx := context.Background()
	res, err := run(ctx, w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := output{Metrics: endToEnd(w, res)}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) {
			res.gates.check(fmt.Errorf("%s has no samples", name))
			out.Metrics[name] = metric{0, m.Unit}
		}
	}
	report(w, "untraced", res)
	printMetrics(out.Metrics)
	results := []*result{res}
	if traced {
		cfg.work = filepath.Join(dir, "traced")
		cfg.tracer = newTracer()
		tres, err := run(ctx, w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		report(w, "traced", tres)
		spansPath := filepath.Join(work, fmt.Sprintf("spans-%s-%d.tsv", name, seed))
		if err := writeSpans(spansPath, tres.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Printf("# spans: %d written to %s\n", len(tres.spans), spansPath)
		out.Metrics = perLayer(res, tres)
		if u := out.Metrics["trace.unattributed_ms"].Value; u != 0 {
			tres.gates.check(fmt.Errorf("per-layer self times miss the traced end-to-end time by %v ms per request", u))
		}
		results = append(results, tres)
	}
	for _, r := range results {
		a, f := r.load.ops()
		out.Attempted += a + r.gates.attempted
		out.Failed += f + r.gates.failed
		for _, msg := range append(r.load.failures, r.gates.failures...) {
			fmt.Printf("# FAILED: %s\n", msg)
		}
	}
	out.Correct = out.Failed == 0
	if traced {
		printMetrics(out.Metrics)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printEnv records the environment every result depends on.
func printEnv(w workload, cfg runConfig) {
	shards := numShards()
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), os.Getenv("PERFBENCH_SOURCE"))
	fmt.Printf("# config workload=%s seed=%d seconds=%g shards=%d profile_cache=%dx%d clients=%d corpus=%d\n",
		w.name, cfg.seed, cfg.seconds, shards, shards, perShardCache(shards), cfg.nproc, w.total)
	if w.durable {
		fmt.Printf("# durable fsync_interval=%s snapshot_every_bytes=%d append_rate=%g/s stream_pairs=%d watch_theta=%g sweep_period=%s\n",
			store.DefaultFsyncInterval, snapshotEvery, appendRate, streamPairs, watchTheta, sweepPeriod)
	}
}

// commit is the VCS revision stamped into the binary, when it was built
// from a checkout that had one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report prints one run's sample counts and notes.
func report(w workload, label string, r *result) {
	fmt.Printf("# %s run: %.2fs measured, setups %v s\n", label, r.seconds, r.setup)
	for k := opKind(0); k < numOps; k++ {
		n := len(r.series[k])
		q := w.tail[k]
		l := latencies(r.series[k])
		fmt.Printf("# %s %-10s attempted=%d failed=%d reported samples=%d p50=%.4g p90=%.4g p99=%.4g ms, tail=p%g with %d beyond\n",
			label, opNames[k], r.load.attempted[k], r.load.failed[k], n,
			percentile(l, 0.5), percentile(l, 0.9), percentile(l, 0.99), 100*q, beyond(n, q))
		if n > 0 && beyond(n, q) < minBeyond {
			fmt.Printf("# note: %s %s tail p%g has %d samples beyond it (want %d): run longer\n", label, opNames[k], 100*q, beyond(n, q), minBeyond)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("# %s %s\n", label, n)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Print(b.String())
}

// endToEnd computes the metrics a caller of the service sees.
func endToEnd(w workload, r *result) map[string]metric {
	a, f := r.load.ops()
	a += r.gates.attempted
	f += r.gates.failed
	m := map[string]metric{
		"setup_s":                 {median(r.setup), "s"},
		"ops_per_s":               {median(r.rates), "1/s"},
		"ok_frac":                 {1 - ratio(float64(f), float64(a)), "fraction"},
		"heap_mb":                 {r.heapMB, "MiB"},
		"stored_bytes_per_sample": {r.bytesPer, "B"},
	}
	for k := opKind(0); k < numOps; k++ {
		var p50s []float64
		for _, round := range byRound(r.series[k], rounds) {
			if len(round) > 0 {
				p50s = append(p50s, median(round))
			}
		}
		m[opNames[k]+"_p50_ms"] = metric{median(p50s), "ms"}
		m[opNames[k]+"_tail_ms"] = metric{percentile(latencies(r.series[k]), w.tail[k]), "ms"}
	}
	return m
}

// perLayer computes the traced run's ledger; plain is the untraced run of
// the same workload in the same process, for the tracing overhead.
func perLayer(plain, tr *result) map[string]metric {
	lg := attribute(tr.spans)
	b, a := tr.before, tr.after
	ops := float64(len(tr.load.completedMS()))
	perOp := func(ns int64, n int) float64 { return ratio(float64(ns)/1e6, float64(n)) }
	m := map[string]metric{}
	var total [numLayers]int64
	for _, acc := range lg.self {
		for l, v := range acc {
			total[l] += v
		}
	}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]+".self_ms"] = metric{perOp(total[l], lg.roots), "ms"}
		sum += total[l]
	}
	m["trace.e2e_ms"] = metric{perOp(lg.e2e, lg.roots), "ms"}
	m["trace.unattributed_ms"] = metric{perOp(lg.e2e-sum, lg.roots), "ms"}
	m["trace.orphan_spans"] = metric{float64(lg.orphans), "count"}
	m["trace.overhead_frac"] = metric{overhead(plain, tr), "fraction"}
	for k := opKind(0); k < numOps; k++ {
		op := opNames[k]
		var v int64
		if acc := lg.self[op]; acc != nil {
			v = acc[layerServer]
		}
		m["server."+op+".self_ms"] = metric{perOp(v, lg.rootsByOp[op]), "ms"}
	}

	calls := map[string][]float64{}
	var walBytes, storeAppends, rejected int64
	for _, s := range tr.spans {
		key := layerNames[s.layer] + "." + s.op
		calls[key] = append(calls[key], float64(s.end-s.start)/1e6)
		if s.layer == layerStore && s.op == "append" {
			walBytes += s.val
			storeAppends++
		}
		if s.layer == layerServer && s.val == 429 {
			rejected++
		}
	}
	m["server.rejected"] = metric{float64(rejected), "count"}
	m["client.retries"] = metric{float64(tr.load.retries), "count"}
	for _, op := range []string{"topk", "score", "scoremin", "append", "get", "trim"} {
		m["engine."+op+"_ms"] = metric{zeroNaN(mean(calls["engine."+op])), "ms"}
	}
	m["store.add_ms"] = metric{zeroNaN(mean(append(calls["store.add"], calls["store.replace"]...))), "ms"}
	m["store.append_ms"] = metric{zeroNaN(mean(calls["store.append"])), "ms"}
	m["store.wal_bytes_per_append"] = metric{ratio(float64(walBytes), float64(storeAppends)), "B"}

	topks := float64(len(calls["engine.topk"]))
	considered := float64(a.prune.Considered - b.prune.Considered)
	m["engine.considered_per_topk"] = metric{ratio(considered, topks), "count"}
	m["engine.refined_per_topk"] = metric{ratio(float64(a.prune.Refined-b.prune.Refined), topks), "count"}
	m["engine.prune_rate"] = metric{ratio(float64(a.prune.BoundPruned-b.prune.BoundPruned+a.prune.EarlyExited-b.prune.EarlyExited), considered), "fraction"}
	ph, pm := float64(a.prof.Hits-b.prof.Hits), float64(a.prof.Misses-b.prof.Misses)
	m["engine.profile_hit_rate"] = metric{ratio(ph, ph+pm), "fraction"}
	m["engine.profile_builds"] = metric{pm, "count"}
	m["engine.profile_evictions"] = metric{float64(a.prof.Evictions - b.prof.Evictions), "count"}
	ch, cm := float64(a.prep.Hits-b.prep.Hits), float64(a.prep.Misses-b.prep.Misses)
	m["engine.prepared_hit_rate"] = metric{ratio(ch, ch+cm), "fraction"}
	m["core.prepares"] = metric{cm, "count"}
	m["core.refined_pairs"] = metric{float64(a.prune.Refined - b.prune.Refined), "count"}

	m["store.snapshots"] = metric{float64(a.store.Snapshots - b.store.Snapshots), "count"}
	m["store.sidecar_writes"] = metric{float64(a.store.SidecarWrites - b.store.SidecarWrites), "count"}
	m["store.recovery_s"] = metric{tr.recovery.Duration.Seconds(), "s"}
	m["store.warm_profiles"] = metric{float64(tr.warm), "count"}
	m["store.warm_s"] = metric{tr.recovery.WarmDuration.Seconds(), "s"}
	m["store.live_bytes_per_sample"] = metric{ratio(float64(a.store.LiveBytes), float64(tr.samples)), "B"}

	appends := float64(a.stream.Appends - b.stream.Appends)
	pairs := float64(a.stream.Pairs - b.stream.Pairs)
	m["stream.pairs_per_append"] = metric{ratio(pairs, appends), "count"}
	m["stream.subthreshold_rate"] = metric{ratio(float64(a.stream.Subthreshold-b.stream.Subthreshold), pairs), "fraction"}

	m["runtime.gc_cycles_per_op"] = metric{ratio(float64(a.gc.NumGC-b.gc.NumGC), ops), "count"}
	m["runtime.gc_pause_tail_ms"] = metric{gcPauseTail(b.gc, a.gc), "ms"}
	m["loadgen.lag_tail_ms"] = metric{zeroNaN(percentile(tr.load.lag, tailPercentile(len(tr.load.lag)))), "ms"}
	return m
}

// overhead is the tracing overhead: the traced run's median latency over
// the untraced run's, minus 1, averaged over the operations both ran, so
// the share of each operation in the load does not weigh in.
func overhead(plain, tr *result) float64 {
	var sum float64
	n := 0
	for k := opKind(0); k < numOps; k++ {
		p, t := latencies(plain.series[k]), latencies(tr.series[k])
		if len(p) > 0 && len(t) > 0 {
			sum += median(t)/median(p) - 1
			n++
		}
	}
	return ratio(sum, float64(n))
}

// gcPauseTail is the tail (p90, or the maximum with fewer than 100
// cycles) of the GC pauses between two MemStats readings still held in
// the runtime's 256-entry pause ring.
func gcPauseTail(b, a runtime.MemStats) float64 {
	var pauses []float64
	for n := b.NumGC + 1; n <= a.NumGC && a.NumGC-n < 256; n++ {
		pauses = append(pauses, float64(a.PauseNs[(n+255)%256])/1e6)
	}
	return zeroNaN(percentile(pauses, tailPercentile(len(pauses))))
}

// tailPercentile is tailFor with the maximum as the fallback for short
// series.
func tailPercentile(n int) float64 {
	if q := tailFor(n); q > 0 {
		return q
	}
	return 1
}

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
