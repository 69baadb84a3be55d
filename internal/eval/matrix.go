package eval

import (
	"context"
	"math"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
)

// MatrixOptions parameterizes ScoreMatrix. The zero value scores every
// pair, applies no floor and runs on GOMAXPROCS workers.
type MatrixOptions struct {
	// Mask, when non-nil, restricts scoring to the pairs with Mask[i][j]
	// true; masked-out pairs get −Inf (rank last, never link) and are never
	// scored — with an STS scorer, trajectories in no admissible pair are
	// not even prepared. Pre-filters such as the FTL feasibility check
	// belong here: masking before scoring skips the expensive similarity
	// entirely instead of discarding its result afterwards.
	Mask [][]bool
	// MinScore, when non-nil, is a score floor: pairs scoring below it get
	// −Inf, exactly like masked-out pairs. Measure-backed scorers (STS)
	// enforce it bound-first — each pair is checked against an admissible
	// profile upper bound and refined with early exit only if the bound
	// passes — so sub-threshold pairs are mostly rejected without full
	// scoring, while every surviving entry is bit-identical to the
	// unfloored matrix. Other scorers are scored in full and floored.
	MinScore *float64
	// Workers bounds scoring parallelism (0 selects GOMAXPROCS).
	Workers int
}

// ScoreMatrix computes scores[i][j] = Score(rows[i], cols[j]) on the
// engine's cancellable executor: it aborts promptly when ctx is cancelled
// or its deadline passes. NaN scores become −Inf. Measure-backed scorers
// prepare (and, when profiled or floored, profile) each distinct
// trajectory once per call; see engine.ScoreMatrix.
func ScoreMatrix(ctx context.Context, rows, cols model.Dataset, s Scorer, opts MatrixOptions) ([][]float64, error) {
	minScore := math.Inf(-1)
	if opts.MinScore != nil {
		minScore = *opts.MinScore
	}
	return engine.ScoreMatrix(ctx, s, rows, cols, opts.Mask, minScore, opts.Workers)
}

// Transient binds a Scorer to ScoreMatrix behind the ScoreBatchMin seam
// that engine.Service exposes, so code written against a serving engine
// (linking) also takes a plain scorer. Nothing is cached across calls.
type Transient struct {
	Scorer  Scorer
	Workers int
}

// ScoreBatchMin scores rows × cols under mask with floor minScore (−Inf:
// no floor) through ScoreMatrix.
func (t Transient) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	return ScoreMatrix(ctx, rows, cols, t.Scorer, MatrixOptions{Mask: mask, MinScore: &minScore, Workers: t.Workers})
}

// parallelFor runs f(0..n-1) across workers goroutines (0 selects
// GOMAXPROCS) on the engine executor and returns the first error.
func parallelFor(n, workers int, f func(i int) error) error {
	return engine.ForEach(context.Background(), n, workers, f)
}
