package main

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/stslib/sts/internal/engine"
)

// TestTracedWrappersTransparent restarts the same durable corpus untraced
// and traced: the traced wrappers must warm-load the same profiles from the
// sidecar, serve the same top-k answers and snapshot (with a sidecar
// write) just as well.
func TestTracedWrappersTransparent(t *testing.T) {
	ctx := context.Background()
	c := genCorpus(7, 400)
	dir := t.TempDir()
	build := filepath.Join(dir, "build")
	if err := buildDurable(ctx, c, build, 2); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		warm     int
		answers  [][]string
		scores   [][]float64
		sidecars uint64
		sharded  bool
	}
	restart := func(name string, tr *tracer) outcome {
		d := filepath.Join(dir, name)
		if err := copyDir(build, d); err != nil {
			t.Fatal(err)
		}
		svc, err := startService(serviceConfig{dataDir: d, snapshotEvery: snapshotEvery, bounds: c.bounds, tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.close()
		cl, err := clientFor(svc.url, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{warm: svc.inner.WarmLoaded()}
		_, o.sharded = svc.eng.(engine.ShardStater)
		for _, tr := range c.trs[:12] {
			resp, err := cl.TopK(ctx, tr.ID, topK)
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			var scores []float64
			for _, m := range resp.Matches {
				ids = append(ids, m.ID)
				scores = append(scores, m.Score)
			}
			o.answers = append(o.answers, ids)
			o.scores = append(o.scores, scores)
		}
		before := svc.inner.StoreStats().SidecarWrites
		if err := svc.eng.Snapshot(); err != nil {
			t.Fatalf("%s snapshot: %v", name, err)
		}
		o.sidecars = svc.inner.StoreStats().SidecarWrites - before
		return o
	}

	plain := restart("plain", nil)
	tr := newTracer()
	traced := restart("traced", tr)

	if plain.warm == 0 {
		t.Fatal("untraced restart warm-loaded no profiles")
	}
	if traced.warm != plain.warm {
		t.Errorf("warm profiles: traced %d, untraced %d", traced.warm, plain.warm)
	}
	if traced.sidecars != plain.sidecars || plain.sidecars == 0 {
		t.Errorf("sidecar writes per snapshot: traced %d, untraced %d", traced.sidecars, plain.sidecars)
	}
	if traced.sharded != plain.sharded {
		t.Errorf("ShardStater: traced %v, untraced %v", traced.sharded, plain.sharded)
	}
	for i := range plain.answers {
		if len(plain.answers[i]) != len(traced.answers[i]) {
			t.Fatalf("query %d: %v traced vs %v", i, traced.answers[i], plain.answers[i])
		}
		for j := range plain.answers[i] {
			if plain.answers[i][j] != traced.answers[i][j] || plain.scores[i][j] != traced.scores[i][j] {
				t.Fatalf("query %d rank %d: traced %s=%v, untraced %s=%v", i, j,
					traced.answers[i][j], traced.scores[i][j], plain.answers[i][j], plain.scores[i][j])
			}
		}
	}

	seen := map[layer]bool{}
	for _, s := range tr.snapshot() {
		seen[s.layer] = true
	}
	for _, l := range []layer{layerServer, layerEngine, layerStore} {
		if !seen[l] {
			t.Errorf("no %s spans recorded", layerNames[l])
		}
	}
}

// TestSmokeWorkloads runs every workload for a second or two, plus one
// traced run, and expects every gate to pass.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"serve_hot", "serve_overcache", "stream_durable"} {
		t.Run(name, func(t *testing.T) {
			if code := mainErr(name, 3, 1.5, false, t.TempDir()); code != 0 {
				t.Fatalf("exit code %d", code)
			}
		})
	}
	t.Run("stream_durable/traced", func(t *testing.T) {
		if code := mainErr("stream_durable", 4, 1.5, true, t.TempDir()); code != 0 {
			t.Fatalf("exit code %d", code)
		}
	})
}
