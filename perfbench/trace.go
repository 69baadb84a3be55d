package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/server"
	"github.com/stslib/sts/internal/store"
)

// The tracer records spans from outside the program, around the calls the
// benchmark can intercept at each layer's public surface: the typed client
// (the benchmark's own calls), the http.Handler in front of
// *server.Server, the engine.Service handed to the server and the stream
// registry, and each shard's store.Corpus. core, stprob and kde run inside
// engine spans; their work is reported as the engine's counters.

// layer names a module a span belongs to.
type layer uint8

const (
	layerClient layer = iota
	layerServer
	layerEngine
	layerStore
	numLayers
)

var layerNames = [numLayers]string{"client", "server", "engine", "store"}

// span is one call across a layer boundary. Times are nanoseconds since
// the tracer's base; parent is 0 for roots. val carries a per-span figure:
// the HTTP status for server spans, the WAL bytes written for store
// appends.
type span struct {
	id, parent uint64
	layer      layer
	op         string
	start, end int64
	val        int64
}

// parentHeader carries the client span's ID to the server-side handler.
const parentHeader = "X-Perfbench-Parent"

type spanKey struct{}

type tracer struct {
	base time.Time
	ids  atomic.Uint64

	mu     sync.Mutex
	spans  []span
	stacks map[uint64][]uint64 // goroutine ID → open span IDs
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stacks: make(map[uint64][]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// openSpan is a started span; end records it.
type openSpan struct {
	t   *tracer
	s   span
	gid uint64
}

// begin starts a span. Its parent is the innermost span open on the same
// goroutine, else the span carried by ctx (calls the program makes from
// goroutines of its own), else none.
func (t *tracer) begin(ctx context.Context, l layer, op string) *openSpan {
	gid := goroutineID()
	id := t.ids.Add(1)
	t.mu.Lock()
	stack := t.stacks[gid]
	var parent uint64
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	} else if ctx != nil {
		parent, _ = ctx.Value(spanKey{}).(uint64)
	}
	t.stacks[gid] = append(stack, id)
	t.mu.Unlock()
	return &openSpan{t: t, gid: gid, s: span{id: id, parent: parent, layer: l, op: op, start: t.now()}}
}

// beginChild starts a span under an explicit parent (the server span,
// whose parent arrives in a header).
func (t *tracer) beginChild(parent uint64, l layer, op string) *openSpan {
	o := t.begin(nil, l, op)
	o.s.parent = parent
	return o
}

func (o *openSpan) end() {
	t := o.t
	o.s.end = t.now()
	t.mu.Lock()
	stack := t.stacks[o.gid]
	if n := len(stack); n > 0 && stack[n-1] == o.s.id {
		stack = stack[:n-1]
	}
	if len(stack) == 0 {
		delete(t.stacks, o.gid)
	} else {
		t.stacks[o.gid] = stack
	}
	t.spans = append(t.spans, o.s)
	t.mu.Unlock()
}

// goroutineID parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:"). The runtime exposes no cheaper handle, and
// several engine and store calls carry no context to hang a span on.
func goroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return id
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans dumps spans as tab-separated lines, one per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tlayer\top\tstart_ns\tend_ns\tval")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, layerNames[s.layer], s.op, s.start, s.end, s.val)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- client side ----

// opState is one client operation's attempt ledger, carried in its
// context to the transport.
type opState struct {
	attempts int
	refused  int
	span     uint64
}

type opKey struct{}

func withOp(ctx context.Context, st *opState) context.Context {
	return context.WithValue(ctx, opKey{}, st)
}

// countingTransport counts every attempt the client makes and every 429
// it receives, and forwards the client span to the server when tracing.
type countingTransport struct {
	base http.RoundTripper
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st, _ := req.Context().Value(opKey{}).(*opState)
	if st != nil {
		st.attempts++
		if st.span != 0 {
			req = req.Clone(req.Context())
			req.Header.Set(parentHeader, strconv.FormatUint(st.span, 10))
		}
	}
	resp, err := c.base.RoundTrip(req)
	if st != nil && err == nil && resp.StatusCode == http.StatusTooManyRequests {
		st.refused++
	}
	return resp, err
}

// ---- server side ----

type tracedHandler struct {
	t *tracer
	h *server.Server
}

func (t *tracer) wrapHandler(s *server.Server) http.Handler { return &tracedHandler{t: t, h: s} }

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
	o := h.t.beginChild(parent, layerServer, "http")
	r = r.WithContext(context.WithValue(r.Context(), spanKey{}, o.s.id))
	sw := &statusWriter{ResponseWriter: w}
	h.h.ServeHTTP(sw, r)
	o.s.val = int64(sw.code)
	o.end()
}

// ---- engine ----

// tracedEngine wraps the engine.Service handed to the server and the
// registry, timing the calls the serving routes and the retention sweep
// make. Methods not overridden forward through the embedded service.
type tracedEngine struct {
	engine.Service
	t *tracer
}

// tracedShardedEngine also forwards engine.ShardStater, which the server
// type-asserts for per-shard stats.
type tracedShardedEngine struct {
	*tracedEngine
	engine.ShardStater
}

func (t *tracer) wrapEngine(e engine.Service) engine.Service {
	te := &tracedEngine{Service: e, t: t}
	if ss, ok := e.(engine.ShardStater); ok {
		return &tracedShardedEngine{tracedEngine: te, ShardStater: ss}
	}
	return te
}

func (e *tracedEngine) Append(id string, tail []model.Sample) (int, error) {
	defer e.t.begin(nil, layerEngine, "append").end()
	return e.Service.Append(id, tail)
}

func (e *tracedEngine) TrimBefore(cutoff float64) (engine.TrimStats, error) {
	defer e.t.begin(nil, layerEngine, "trim").end()
	return e.Service.TrimBefore(cutoff)
}

func (e *tracedEngine) Get(id string) (model.Trajectory, bool) {
	defer e.t.begin(nil, layerEngine, "get").end()
	return e.Service.Get(id)
}

func (e *tracedEngine) TopK(ctx context.Context, q model.Trajectory, k int) ([]engine.Match, error) {
	defer e.t.begin(ctx, layerEngine, "topk").end()
	return e.Service.TopK(ctx, q, k)
}

func (e *tracedEngine) TopKOpts(ctx context.Context, q model.Trajectory, opts engine.TopKOptions) ([]engine.Match, error) {
	defer e.t.begin(ctx, layerEngine, "topk").end()
	return e.Service.TopKOpts(ctx, q, opts)
}

func (e *tracedEngine) ScoreBatch(ctx context.Context, rows, cols model.Dataset, mask [][]bool) ([][]float64, error) {
	defer e.t.begin(ctx, layerEngine, "score").end()
	return e.Service.ScoreBatch(ctx, rows, cols, mask)
}

func (e *tracedEngine) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	defer e.t.begin(ctx, layerEngine, "scoremin").end()
	return e.Service.ScoreBatchMin(ctx, rows, cols, mask, minScore)
}

// ---- store ----

// tracedCorpus wraps one shard's store, timing ingest, appends and
// lookups. Embedding *store.Store keeps every capability the engine
// type-asserts — store.SidecarCorpus and Snapshot() — so warm restarts and
// forced snapshots behave as untraced.
type tracedCorpus struct {
	*store.Store
	t *tracer
}

func (t *tracer) wrapCorpus(s *store.Store) *tracedCorpus { return &tracedCorpus{Store: s, t: t} }

var _ store.SidecarCorpus = (*tracedCorpus)(nil)

func (c *tracedCorpus) Add(tr model.Trajectory) (store.Ref, error) {
	defer c.t.begin(nil, layerStore, "add").end()
	return c.Store.Add(tr)
}

func (c *tracedCorpus) Replace(tr model.Trajectory) (store.Ref, error) {
	defer c.t.begin(nil, layerStore, "replace").end()
	return c.Store.Replace(tr)
}

// Append records the WAL bytes the append wrote. The delta is read around
// the call; a snapshot rotating the segment in between reads as the new
// segment's size.
func (c *tracedCorpus) Append(id string, tail []model.Sample) (store.Ref, error) {
	o := c.t.begin(nil, layerStore, "append")
	before := c.Store.Stats().WALBytes
	ref, err := c.Store.Append(id, tail)
	after := c.Store.Stats().WALBytes
	if after >= before {
		o.s.val = after - before
	} else {
		o.s.val = after
	}
	o.end()
	return ref, err
}

func (c *tracedCorpus) Get(id string) (model.Trajectory, bool) {
	defer c.t.begin(nil, layerStore, "get").end()
	return c.Store.Get(id)
}

// ---- self-time attribution ----

// ledger is the per-layer split of the traced requests.
type ledger struct {
	roots int
	e2e   int64 // summed root (client) durations, ns
	// self[op][layer] is the self time, ns, of each layer in requests
	// whose root op is op; rootsByOp counts those requests.
	self      map[string]*[numLayers]int64
	rootsByOp map[string]int
	orphans   int // non-root spans whose chain reaches no client root
}

// attribute splits every client-rooted span tree's wall time across
// layers. Each instant of a root's interval goes to the deepest span open
// at that instant (the latest started among equals), so a layer's self
// time is its spans' time minus the time their child spans cover, and the
// layers' self times add up exactly to the root's duration even when
// children overlap (a scatter to several shards). Child spans are clipped
// to the root's interval.
func attribute(spans []span) ledger {
	lg := ledger{self: make(map[string]*[numLayers]int64), rootsByOp: make(map[string]int)}
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	rootOf := make([]int, len(spans))
	depth := make([]int, len(spans))
	var resolve func(i int) (int, int)
	resolve = func(i int) (root, d int) {
		if rootOf[i] != 0 {
			return rootOf[i] - 1, depth[i]
		}
		s := spans[i]
		switch p, ok := byID[s.parent]; {
		case s.parent == 0 && s.layer == layerClient:
			root, d = i, 0
		case s.parent == 0 || !ok:
			root, d = -1, 0
		default:
			root, d = resolve(p)
			d++
		}
		rootOf[i], depth[i] = root+1, d
		return root, d
	}
	trees := make(map[int][]int)
	for i, s := range spans {
		if _, ok := byID[s.parent]; s.parent != 0 && !ok {
			lg.orphans++
		}
		root, _ := resolve(i)
		if root < 0 {
			continue
		}
		trees[root] = append(trees[root], i)
	}
	for root, members := range trees {
		r := spans[root]
		acc := lg.self[r.op]
		if acc == nil {
			acc = new([numLayers]int64)
			lg.self[r.op] = acc
		}
		lg.roots++
		lg.rootsByOp[r.op]++
		lg.e2e += r.end - r.start
		type event struct {
			t    int64
			span int
			open bool
		}
		events := make([]event, 0, 2*len(members))
		for _, i := range members {
			s, e := max(spans[i].start, r.start), min(spans[i].end, r.end)
			if e <= s {
				continue
			}
			events = append(events, event{s, i, true}, event{e, i, false})
		}
		sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })
		var active []int
		prev := r.start
		for k := 0; k < len(events); {
			t := events[k].t
			if len(active) > 0 && t > prev {
				best := active[0]
				for _, i := range active[1:] {
					if depth[i] > depth[best] || (depth[i] == depth[best] && spans[i].start > spans[best].start) {
						best = i
					}
				}
				acc[spans[best].layer] += t - prev
			}
			for ; k < len(events) && events[k].t == t; k++ {
				ev := events[k]
				if ev.open {
					active = append(active, ev.span)
					continue
				}
				for j, i := range active {
					if i == ev.span {
						active = append(active[:j], active[j+1:]...)
						break
					}
				}
			}
			prev = t
		}
	}
	return lg
}
