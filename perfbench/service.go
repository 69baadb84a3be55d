package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/stslib/sts/client"
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/server"
	"github.com/stslib/sts/internal/store"
	"github.com/stslib/sts/internal/stream"
)

// drainBudget is the graceful-shutdown budget, stsserved's -drain default.
const drainBudget = 10 * time.Second

// serviceConfig selects what differs between workloads. Everything else is
// stsserved's default flag set.
type serviceConfig struct {
	// dataDir is the durable corpus directory ("" serves in memory).
	dataDir string
	// snapshotEvery is the store's automatic-snapshot threshold in WAL
	// bytes (0 keeps the store default).
	snapshotEvery int64
	// bounds are the corpus bounds the spatial scales derive from when the
	// store recovers nothing, as stsserved derives them from -dataset.
	bounds geo.Rect
	// tracer, when non-nil, installs the traced wrappers around every
	// layer boundary.
	tracer *tracer
}

// service is one in-process stsserved: shard stores, the engine service,
// the standing-query registry and the HTTP server on a loopback listener.
type service struct {
	eng     engine.Service // what the server and registry call (wrapped when traced)
	inner   engine.Service // the unwrapped engine, for the exactness gate
	watches *stream.Registry
	url     string
	stop    context.CancelFunc
	done    chan error

	closeOnce sync.Once
	closeErr  error
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// numShards is stsserved's default -shards: min(8, NumCPU).
func numShards() int {
	return min(8, runtime.NumCPU())
}

// perShardCache splits engine.DefaultCacheSize across the shards the way
// stsserved does.
func perShardCache(shards int) int {
	if shards == 1 {
		return engine.DefaultCacheSize
	}
	return (engine.DefaultCacheSize + shards - 1) / shards
}

// startService builds and serves one service. The caller owns it and must
// call close.
func startService(cfg serviceConfig) (*service, error) {
	n := numShards()
	stOpts := store.Options{SnapshotEvery: cfg.snapshotEvery, Logger: discardLog}
	stores := make([]*store.Store, n)
	if cfg.dataDir != "" {
		err := engine.ForEach(context.Background(), n, n, func(i int) error {
			dir := cfg.dataDir
			if n > 1 {
				dir = store.ShardDir(cfg.dataDir, i)
			}
			st, err := store.Open(dir, stOpts)
			stores[i] = st
			return err
		})
		if err != nil {
			closeStores(stores)
			return nil, fmt.Errorf("open stores: %w", err)
		}
	} else {
		for i := range stores {
			stores[i] = store.New(stOpts)
		}
	}

	bounds, have := cfg.bounds, false
	for _, st := range stores {
		if b, ok := st.Bounds(); ok {
			if !have {
				bounds, have = b, true
			} else {
				bounds = bounds.Union(b)
			}
		}
	}
	scorer, err := buildScorer(bounds)
	if err != nil {
		closeStores(stores)
		return nil, err
	}

	corpora := make([]store.Corpus, n)
	for i, st := range stores {
		corpora[i] = st
		if cfg.tracer != nil {
			corpora[i] = cfg.tracer.wrapCorpus(st)
		}
	}
	var inner engine.Service
	if n == 1 {
		inner, err = engine.New(scorer, engine.Options{Corpus: corpora[0]})
	} else {
		inner, err = engine.NewSharded(scorer, engine.ShardedOptions{
			Shards: n,
			ShardOptions: func(i int) (engine.Options, error) {
				return engine.Options{
					Workers:   engine.SplitWorkers(0, engine.DefaultFanOut),
					CacheSize: perShardCache(n),
					Corpus:    corpora[i],
				}, nil
			},
		})
	}
	if err != nil {
		closeStores(stores)
		return nil, fmt.Errorf("engine: %w", err)
	}
	eng := inner
	if cfg.tracer != nil {
		eng = cfg.tracer.wrapEngine(inner)
	}
	watches, err := stream.NewRegistry(eng, stream.Options{Dir: cfg.dataDir})
	if err != nil {
		inner.Close()
		return nil, fmt.Errorf("registry: %w", err)
	}
	srv, err := server.New(eng, server.Options{Logger: discardLog, Watches: watches})
	if err != nil {
		watches.Close()
		inner.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		watches.Close()
		inner.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &service{
		eng: eng, inner: inner, watches: watches,
		url: "http://" + ln.Addr().String(), stop: stop, done: make(chan error, 1),
	}
	if cfg.tracer != nil {
		go func() { s.done <- serveTraced(ctx, cfg.tracer.wrapHandler(srv), ln) }()
	} else {
		go func() { s.done <- srv.Serve(ctx, ln, drainBudget) }()
	}
	return s, nil
}

// close drains the server, stops the registry and closes the engine (and
// with it every store). It returns once the serving goroutine has exited;
// later calls return the first call's error.
func (s *service) close() error {
	s.closeOnce.Do(func() {
		s.stop()
		err := <-s.done
		s.watches.Close()
		s.closeErr = errors.Join(err, s.inner.Close())
	})
	return s.closeErr
}

func closeStores(stores []*store.Store) {
	for _, st := range stores {
		if st != nil {
			st.Close()
		}
	}
}

// serveTraced is server.Serve with the traced handler in front of the
// server: the same http.Server settings and the same graceful drain.
func serveTraced(ctx context.Context, h http.Handler, ln net.Listener) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(discardLog.Handler(), slog.LevelWarn),
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	return nil
}

// buildScorer is stsserved's scale derivation for a non-empty corpus with
// no -grid/-sigma: grid = extent/100, sigma = grid, the exact STS scorer,
// and a grid padded by half the extent for later appends near the edge.
func buildScorer(bounds geo.Rect) (eval.Scorer, error) {
	extent := max(bounds.Width(), bounds.Height())
	gridSize := extent / 100
	sigma := gridSize
	bounds = bounds.Expand(extent / 2)
	grid, err := geo.NewGrid(bounds.Expand(4*sigma+gridSize), gridSize)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	m, err := core.NewSTS(grid, sigma)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	return eval.NewSTSScorer("STS", m), nil
}

// clientFor is the typed client over a transport holding at most conns
// connections, with the client's default retry policy. The counting
// transport sees every attempt, so retries and refusals are counted.
func clientFor(url string, conns int) (*client.Client, error) {
	rt := &countingTransport{base: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}}
	return client.NewWithOptions(url, client.Options{HTTPClient: &http.Client{Transport: rt}})
}
