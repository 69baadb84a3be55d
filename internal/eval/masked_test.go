package eval

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// countingScorer counts Score invocations, to prove masked pairs are
// never scored.
type countingScorer struct {
	calls atomic.Int64
}

func (c *countingScorer) Name() string { return "counting" }

func (c *countingScorer) Score(a, b model.Trajectory) (float64, error) {
	c.calls.Add(1)
	return a.Samples[0].Loc.X * b.Samples[0].Loc.X, nil
}

func TestScoreMatrixMaskedSkipsMaskedPairs(t *testing.T) {
	rows := model.Dataset{tagged("r0", 1), tagged("r1", 2)}
	cols := model.Dataset{tagged("c0", 3), tagged("c1", 5), tagged("c2", 7)}
	mask := [][]bool{
		{true, false, true},
		{false, false, true},
	}
	sc := &countingScorer{}
	m, err := ScoreMatrix(context.Background(), rows, cols, sc, MatrixOptions{Mask: mask, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.calls.Load(); got != 3 {
		t.Errorf("scored %d pairs, want 3 (the unmasked ones)", got)
	}
	for i := range mask {
		for j := range mask[i] {
			if mask[i][j] {
				want := rows[i].Samples[0].Loc.X * cols[j].Samples[0].Loc.X
				if m[i][j] != want {
					t.Errorf("m[%d][%d]=%v want %v", i, j, m[i][j], want)
				}
			} else if !math.IsInf(m[i][j], -1) {
				t.Errorf("masked m[%d][%d]=%v want -Inf", i, j, m[i][j])
			}
		}
	}
}

func TestScoreMatrixMaskedNilMaskMatchesScoreMatrix(t *testing.T) {
	rows := model.Dataset{tagged("r0", 1), tagged("r1", 2)}
	cols := model.Dataset{tagged("c0", 3), tagged("c1", 5)}
	full := [][]bool{{true, true}, {true, true}}
	a, err := ScoreMatrix(context.Background(), rows, cols, tagCloseness, MatrixOptions{Mask: full, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScoreMatrix(context.Background(), rows, cols, tagCloseness, MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("[%d][%d]: all-true mask %v != nil mask %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestSTSScorerMaskedMatchesUnmasked pins the masked fast path of the STS
// scorer to the plain matrix at every unmasked position.
func TestSTSScorerMaskedMatchesUnmasked(t *testing.T) {
	grid, err := geo.NewGrid(geo.Rect{Min: geo.Point{X: -10, Y: -10}, Max: geo.Point{X: 120, Y: 120}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSTSScorer("STS", m)
	rows := model.Dataset{stsWalk("r0", 0), stsWalk("r1", 30), stsWalk("r2", 60)}
	cols := model.Dataset{stsWalk("c0", 1), stsWalk("c1", 31)}
	mask := [][]bool{
		{true, true},
		{false, true},
		{false, false}, // r2 appears in no pair: must not even be prepared
	}
	got, err := ScoreMatrix(context.Background(), rows, cols, s, MatrixOptions{Mask: mask, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScoreMatrix(context.Background(), rows, cols, s, MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		for j := range mask[i] {
			if mask[i][j] {
				if got[i][j] != want[i][j] {
					t.Errorf("[%d][%d]: masked %v != unmasked %v", i, j, got[i][j], want[i][j])
				}
			} else if !math.IsInf(got[i][j], -1) {
				t.Errorf("masked [%d][%d]=%v want -Inf", i, j, got[i][j])
			}
		}
	}
}
