package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1},
	} {
		if got := percentile(values, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if values[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 0}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {5000, 0.99},
	} {
		if got := tailFor(c.n); got != c.want {
			t.Errorf("tailFor(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailFor(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("tailFor(%d) = p%v leaves %d samples beyond it", c.n, 100*q, beyond(c.n, q))
		}
	}
	// Counted directly: exactly ten of 1000 samples exceed the p99.
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i + 1)
	}
	p99 := percentile(values, 0.99)
	above := 0
	for _, v := range values {
		if v > p99 {
			above++
		}
	}
	if above != 10 || beyond(1000, 0.99) != 10 {
		t.Errorf("p99 of 1000 = %v with %d above it (beyond says %d), want 10", p99, above, beyond(1000, 0.99))
	}
}

func TestAttributeSelfTimes(t *testing.T) {
	spans := []span{
		// Request 1: client [0,100] → server [10,90] → engine [20,60] →
		// store [30,40]; a second engine call [50,80] overlaps the first,
		// as a scatter would.
		{id: 1, layer: layerClient, op: "topk", start: 0, end: 100},
		{id: 2, parent: 1, layer: layerServer, start: 10, end: 90},
		{id: 3, parent: 2, layer: layerEngine, start: 20, end: 60},
		{id: 4, parent: 3, layer: layerStore, start: 30, end: 40},
		{id: 5, parent: 2, layer: layerEngine, start: 50, end: 80},
		// Request 2: an append whose store span outlives its parents; only
		// the part inside the root counts, all of it to the store.
		{id: 6, layer: layerClient, op: "append", start: 200, end: 250},
		{id: 7, parent: 6, layer: layerServer, start: 205, end: 245},
		{id: 8, parent: 7, layer: layerStore, start: 240, end: 260},
		// A background root (a retention sweep) and its child are not a
		// request; a span whose parent was never recorded is an orphan.
		{id: 9, layer: layerEngine, op: "trim", start: 300, end: 400},
		{id: 10, parent: 9, layer: layerStore, start: 310, end: 320},
		{id: 11, parent: 99, layer: layerStore, start: 0, end: 5},
	}
	lg := attribute(spans)
	if lg.roots != 2 || lg.e2e != 150 || lg.orphans != 1 {
		t.Fatalf("roots=%d e2e=%d orphans=%d, want 2, 150, 1", lg.roots, lg.e2e, lg.orphans)
	}
	want := map[string][numLayers]int64{
		"topk":   {layerClient: 20, layerServer: 20, layerEngine: 50, layerStore: 10},
		"append": {layerClient: 5, layerServer: 35, layerStore: 10},
	}
	var sum int64
	for op, w := range want {
		got := lg.self[op]
		if got == nil || *got != w {
			t.Errorf("self[%s] = %v, want %v", op, got, w)
			continue
		}
		for _, v := range got {
			sum += v
		}
	}
	if sum != lg.e2e {
		t.Errorf("self times sum to %d, traced end-to-end is %d", sum, lg.e2e)
	}
	if lg.rootsByOp["topk"] != 1 || lg.rootsByOp["append"] != 1 {
		t.Errorf("rootsByOp = %v", lg.rootsByOp)
	}
}
