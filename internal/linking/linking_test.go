package linking

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// walkAt builds a trajectory at constant velocity, sampled at the given
// times, passing through origin at t=0.
func walkAt(id string, origin geo.Point, vx float64, times ...float64) model.Trajectory {
	tr := model.Trajectory{ID: id}
	for _, t := range times {
		tr.Samples = append(tr.Samples, model.Sample{
			Loc: geo.Point{X: origin.X + vx*t, Y: origin.Y},
			T:   t,
		})
	}
	return tr
}

func TestMergeByTime(t *testing.T) {
	a := walkAt("a", geo.Point{}, 1, 0, 10, 20)
	b := walkAt("b", geo.Point{}, 1, 5, 15)
	m := MergeByTime(a, b)
	if m.Len() != 5 {
		t.Fatalf("merged %d samples", m.Len())
	}
	want := []float64{0, 5, 10, 15, 20}
	for i, s := range m.Samples {
		if s.T != want[i] {
			t.Fatalf("merged[%d].T=%v want %v", i, s.T, want[i])
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("merged invalid: %v", err)
	}
	// Empty operands.
	if got := MergeByTime(a, model.Trajectory{}); got.Len() != a.Len() {
		t.Error("merge with empty lost samples")
	}
}

func TestFeasible(t *testing.T) {
	// Same walk at 1 m/s, offset sampling: always feasible at 2 m/s.
	a := walkAt("a", geo.Point{}, 1, 0, 10, 20)
	b := walkAt("b", geo.Point{}, 1, 5, 15)
	if !Feasible(a, b, 2, 0.5) {
		t.Error("co-moving pair judged infeasible")
	}
	// Two objects 100 m apart sampled 1 s apart: needs 100 m/s.
	c := walkAt("c", geo.Point{Y: 100}, 1, 1, 11)
	if Feasible(a, c, 2, 0.5) {
		t.Error("distant pair judged feasible")
	}
	// The minGap exemption forgives near-simultaneous noisy samples.
	d := walkAt("d", geo.Point{Y: 3}, 1, 0.01, 10.01)
	if !Feasible(a, d, 2, 0.5) {
		t.Error("noise at tiny delta-t not exempted")
	}
}

// greedy and optimal link with a plain scorer through the transient
// matrix, scored on opts.Workers.
func greedy(d1, d2 model.Dataset, s eval.Scorer, opts Options) ([]Link, error) {
	return GreedyLink(context.Background(), eval.Transient{Scorer: s, Workers: opts.Workers}, d1, d2, opts)
}

func optimal(d1, d2 model.Dataset, s eval.Scorer, opts Options) ([]Link, error) {
	return OptimalLink(context.Background(), eval.Transient{Scorer: s, Workers: opts.Workers}, d1, d2, opts)
}

// tagScorer links by closeness of the trajectories' origins.
var tagScorer = eval.FuncScorer{N: "tag", F: func(a, b model.Trajectory) (float64, error) {
	return -math.Abs(a.Samples[0].Loc.Y - b.Samples[0].Loc.Y), nil
}}

func TestGreedyLinkRecoversIdentity(t *testing.T) {
	var d1, d2 model.Dataset
	for i := 0; i < 5; i++ {
		d1 = append(d1, walkAt("a", geo.Point{Y: float64(i * 10)}, 1, 0, 10, 20))
		d2 = append(d2, walkAt("b", geo.Point{Y: float64(i*10) + 1}, 1, 5, 15))
	}
	links, err := greedy(d1, d2, tagScorer, Options{MinScore: math.Inf(-1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 5 {
		t.Fatalf("got %d links", len(links))
	}
	p, r := Accuracy(links, 5)
	if p != 1 || r != 1 {
		t.Errorf("precision=%v recall=%v", p, r)
	}
	// Links sorted descending by score.
	for i := 1; i < len(links); i++ {
		if links[i].Score > links[i-1].Score {
			t.Error("links not sorted")
		}
	}
}

func TestGreedyLinkOneToOne(t *testing.T) {
	// Two rows both closest to the same column: only one may take it.
	d1 := model.Dataset{
		walkAt("a0", geo.Point{Y: 0}, 1, 0, 10),
		walkAt("a1", geo.Point{Y: 0.1}, 1, 0, 10),
	}
	d2 := model.Dataset{
		walkAt("b0", geo.Point{Y: 0}, 1, 5, 15),
		walkAt("b1", geo.Point{Y: 50}, 1, 5, 15),
	}
	links, err := greedy(d1, d2, tagScorer, Options{MinScore: math.Inf(-1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seenJ := map[int]bool{}
	for _, l := range links {
		if seenJ[l.J] {
			t.Fatal("column linked twice")
		}
		seenJ[l.J] = true
	}
}

func TestGreedyLinkMinScore(t *testing.T) {
	d1 := model.Dataset{walkAt("a", geo.Point{Y: 0}, 1, 0, 10)}
	d2 := model.Dataset{walkAt("b", geo.Point{Y: 100}, 1, 5, 15)}
	links, err := greedy(d1, d2, tagScorer, Options{MinScore: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Errorf("threshold did not reject: %v", links)
	}
}

func TestGreedyLinkFeasibilityFilter(t *testing.T) {
	// The tag scorer says these two are a great match (same Y), but the
	// merged trajectory needs 100 m/s: the feasibility filter must veto.
	d1 := model.Dataset{walkAt("a", geo.Point{Y: 0}, 0, 0, 10)}
	far := model.Trajectory{ID: "b", Samples: []model.Sample{
		{Loc: geo.Point{X: 1000, Y: 0}, T: 1},
		{Loc: geo.Point{X: 1000, Y: 0}, T: 11},
	}}
	d2 := model.Dataset{far}
	links, err := greedy(d1, d2, tagScorer, Options{MinScore: math.Inf(-1), MaxSpeed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Errorf("infeasible pair linked: %v", links)
	}
}

func TestGreedyLinkDoesNotScoreInfeasiblePairs(t *testing.T) {
	// One stationary pair at the origin, one trajectory parked 1 km away:
	// the far pairs fail the 10 m/s feasibility check and must never reach
	// the scorer.
	d1 := model.Dataset{walkAt("a", geo.Point{Y: 0}, 0, 0, 10)}
	far := model.Trajectory{ID: "far", Samples: []model.Sample{
		{Loc: geo.Point{X: 1000}, T: 1},
		{Loc: geo.Point{X: 1000}, T: 11},
	}}
	near := walkAt("near", geo.Point{Y: 1}, 0, 5, 15)
	d2 := model.Dataset{far, near}
	scored := 0
	counter := eval.FuncScorer{N: "count", F: func(a, b model.Trajectory) (float64, error) {
		scored++
		return 1, nil
	}}
	links, err := greedy(d1, d2, counter, Options{MaxSpeed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if scored != 1 {
		t.Errorf("scored %d pairs, want 1 (the feasible one)", scored)
	}
	if len(links) != 1 || links[0].J != 1 {
		t.Errorf("links=%v want the near pair", links)
	}
}

func TestGreedyLinkDeterministicTies(t *testing.T) {
	// Every pair scores identically: greedy must resolve ties by (I, J),
	// linking the diagonal, on every run.
	constScorer := eval.FuncScorer{N: "const", F: func(a, b model.Trajectory) (float64, error) {
		return 0.5, nil
	}}
	var d1, d2 model.Dataset
	for i := 0; i < 4; i++ {
		d1 = append(d1, walkAt("a", geo.Point{Y: float64(i)}, 1, 0, 10))
		d2 = append(d2, walkAt("b", geo.Point{Y: float64(i)}, 1, 5, 15))
	}
	for trial := 0; trial < 5; trial++ {
		links, err := greedy(d1, d2, constScorer, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(links) != 4 {
			t.Fatalf("got %d links", len(links))
		}
		for k, l := range links {
			if l.I != k || l.J != k {
				t.Fatalf("trial %d: link %d is (%d,%d), want diagonal", trial, k, l.I, l.J)
			}
		}
	}
}

func TestFeasibleDoesNotAllocate(t *testing.T) {
	a := walkAt("a", geo.Point{}, 1, 0, 10, 20, 30, 40)
	b := walkAt("b", geo.Point{}, 1, 5, 15, 25, 35)
	allocs := testing.AllocsPerRun(100, func() {
		Feasible(a, b, 2, 0.5)
	})
	if allocs != 0 {
		t.Errorf("Feasible allocates %v times per call, want 0", allocs)
	}
}

func TestGreedyLinkErrors(t *testing.T) {
	d := model.Dataset{walkAt("a", geo.Point{}, 1, 0, 10)}
	if _, err := greedy(nil, d, tagScorer, Options{}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty d1: %v", err)
	}
	if _, err := greedy(d, nil, tagScorer, Options{}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty d2: %v", err)
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if p, r := Accuracy(nil, 0); p != 0 || r != 0 {
		t.Errorf("empty: %v %v", p, r)
	}
	if p, r := Accuracy(nil, 5); p != 0 || r != 0 {
		t.Errorf("no links: %v %v", p, r)
	}
	links := []Link{{I: 0, J: 0}, {I: 1, J: 2}}
	p, r := Accuracy(links, 4)
	if p != 0.5 || r != 0.25 {
		t.Errorf("precision=%v recall=%v", p, r)
	}
}
