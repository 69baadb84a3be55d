package linking

import (
	"context"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// TestGreedyLinkBatchMatchesContext checks that linking through an
// engine's ScoreBatchMin (the serving path) produces exactly the links of
// the transient eval.Transient path, pre-filter and thresholds included.
func TestGreedyLinkBatchMatchesContext(t *testing.T) {
	grid, err := geo.NewGrid(geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 400, Y: 100}), 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(grid, 5)
	if err != nil {
		t.Fatal(err)
	}
	scorer := eval.NewSTSScorer("STS", m)

	ds1 := model.Dataset{
		walkAt("a", geo.Point{}, 1, 0, 10, 20, 30, 40),
		walkAt("b", geo.Point{Y: 50}, 1.5, 0, 10, 20, 30, 40),
		walkAt("c", geo.Point{Y: -50}, 0.5, 0, 10, 20, 30, 40),
	}
	ds2 := model.Dataset{
		walkAt("c2", geo.Point{Y: -50}, 0.5, 5, 15, 25, 35),
		walkAt("a2", geo.Point{}, 1, 5, 15, 25, 35),
		walkAt("b2", geo.Point{Y: 50}, 1.5, 5, 15, 25, 35),
	}

	opts := Options{MaxSpeed: 3, MinGap: 1}
	want, err := GreedyLink(context.Background(), eval.Transient{Scorer: scorer}, ds1, ds2, opts)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := engine.New(scorer, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyLink(context.Background(), eng, ds1, ds2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("engine: %d links, transient: %d", len(got), len(want))
	}
	for i := range got {
		if got[i].I != want[i].I || got[i].J != want[i].J || got[i].Score != want[i].Score {
			t.Fatalf("link %d: engine %+v, transient %+v", i, got[i], want[i])
		}
	}
	if len(got) == 0 {
		t.Fatal("no links produced; test is vacuous")
	}
	// Empty inputs fail the same way.
	if _, err := GreedyLink(context.Background(), eng, nil, ds2, opts); err != ErrEmptyInput {
		t.Fatalf("empty d1: err=%v", err)
	}
}
