// Matrix scoring: rows × cols under an optional mask and an optional score
// floor, on the long-lived Engine (LRU-cached per-trajectory state) and on
// the transient ScoreMatrix (a per-call dedup map). Both resolve each side's
// per-trajectory state first and then run one pair-matrix fill.
//
// A floor is the filter-and-refine analogue of top-k's threshold: entries
// whose score is provably below it collapse to −Inf without full scoring —
// first by the admissible profile upper bound, then by early-exited
// refinement — while every entry at or above it is bit-identical to its
// exhaustive counterpart. Greedy linking with a rejection threshold
// consumes these matrices unchanged.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/model"
)

// ScoreBatch is ScoreBatchMin with no floor.
func (e *Engine) ScoreBatch(ctx context.Context, rows, cols model.Dataset, mask [][]bool) ([][]float64, error) {
	return e.ScoreBatchMin(ctx, rows, cols, mask, math.Inf(-1))
}

// ScoreBatchMin computes scores[i][j] = Score(rows[i], cols[j]) for every
// pair with mask[i][j] true (a nil mask scores everything); masked-out
// pairs get −Inf so they rank last and never link, and so do pairs scoring
// below minScore (−Inf or NaN: no floor). NaN scores are sanitized to
// −Inf. Scoring runs on the engine's worker pool with ctx cancellation.
//
// With a measure-backed scorer, each distinct trajectory is prepared once
// through the engine's LRU cache — repeated batches over the same data hit
// the cache instead of re-estimating speed models — and trajectories that
// appear in no admissible pair are never prepared at all (preparation is
// the dominant per-trajectory cost). A profiled engine additionally builds
// each trajectory's bucketed S-T profile once (second LRU), collapsing
// every pair evaluation to a sparse dot-product merge. With pruning enabled
// a floor is enforced bound-first (see scoreMinPair), so most sub-threshold
// pairs never pay full scoring; otherwise pairs are scored in full and
// floored afterwards.
func (e *Engine) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	minScore = floorOf(minScore)
	pm := pairMatrix{rows: rows, cols: cols}
	if e.measure == nil {
		pm.scorer = e.scorer
		return pm.fill(ctx, e.workers, mask, minScore, nil)
	}
	pm.m = e.measure
	pm.profiled = e.profOpts != nil
	pm.bounded = !math.IsInf(minScore, -1) && e.canPrune()
	pm.alloc()
	rowNeeded, colNeeded := neededSides(len(rows), len(cols), mask)
	if err := ForEach(ctx, len(rows)+len(cols), e.workers, func(k int) error {
		if k < len(rows) {
			if !rowNeeded[k] {
				return nil
			}
			return e.resolve(rows[k], pm.rowPrep, pm.rowProf, k)
		}
		k -= len(rows)
		if !colNeeded[k] {
			return nil
		}
		return e.resolve(cols[k], pm.colPrep, pm.colProf, k)
	}); err != nil {
		return nil, err
	}
	if !pm.bounded {
		return pm.fill(ctx, e.workers, mask, minScore, nil)
	}
	var st pruneCounters
	defer func() {
		e.pstats.add(st.considered.Load(), st.boundPruned.Load(), st.earlyExited.Load(), st.refined.Load())
	}()
	return pm.fill(ctx, e.workers, mask, minScore, &st)
}

// resolve fetches tr's per-trajectory state from the LRU caches into slot
// k of whichever side slices the matrix needs (nil slices are skipped);
// the caches dedupe trajectories shared between rows and cols, or with
// earlier batches.
func (e *Engine) resolve(tr model.Trajectory, preps []*core.Prepared, profs []*core.Profile, k int) error {
	if profs != nil {
		p, err := e.profiled(tr)
		if err != nil {
			return err
		}
		profs[k] = p
	}
	if preps != nil {
		p, err := e.prepared(tr)
		if err != nil {
			return err
		}
		preps[k] = p
	}
	return nil
}

// ScoreMatrix scores rows × cols without a persistent engine — the thin
// view eval.ScoreMatrix is built on — with ScoreBatchMin's mask and floor
// semantics. Within one call every distinct trajectory (by identity key, so
// a trajectory shared between rows and cols counts once) is prepared
// exactly once; trajectories in no admissible pair are never prepared.
// Unlike Engine.ScoreBatchMin there is no LRU, no single-flight channel and
// no eviction bookkeeping — one-shot batches pay only a flat dedup map and
// the prepared state itself. Long-lived callers that want caching across
// calls should hold an Engine.
//
// A ProfileScorer with non-nil options is scored through bucketed
// profiles: each distinct trajectory's profile is built once in the same
// fan-out and pairs reduce to sparse dot-product merges. With a floor, a
// measure-backed scorer's trajectories also get bound profiles and every
// pair is bounded before it is refined; other scorers are scored in full
// and floored afterwards.
func ScoreMatrix(ctx context.Context, s Scorer, rows, cols model.Dataset, mask [][]bool, minScore float64, workers int) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minScore = floorOf(minScore)
	pm := pairMatrix{rows: rows, cols: cols}
	ms, ok := s.(MeasureScorer)
	if !ok {
		pm.scorer = s
		return pm.fill(ctx, workers, mask, minScore, nil)
	}
	m := ms.Measure()
	var popts *core.ProfileOptions
	if ps, ok := s.(ProfileScorer); ok {
		popts = ps.ProfileOptions()
	}
	pm.m = m
	pm.profiled = popts != nil
	pm.bounded = !math.IsInf(minScore, -1)
	if pm.bounded {
		bopts := core.ProfileOptions{}
		if popts != nil {
			bopts = *popts
		}
		bopts.Bounds = true
		popts = &bopts
	}

	// Dedupe the needed trajectories of both sides by identity key.
	rowNeeded, colNeeded := neededSides(len(rows), len(cols), mask)
	uniq := make(model.Dataset, 0, len(rows)+len(cols))
	slotOf := make(map[prepKey]int, len(rows)+len(cols))
	rowSlot := make([]int, len(rows))
	colSlot := make([]int, len(cols))
	assign := func(tr model.Trajectory) int {
		k := keyOf(tr)
		if slot, ok := slotOf[k]; ok {
			return slot
		}
		slot := len(uniq)
		slotOf[k] = slot
		uniq = append(uniq, tr)
		return slot
	}
	for i, tr := range rows {
		rowSlot[i] = -1
		if rowNeeded[i] {
			rowSlot[i] = assign(tr)
		}
	}
	for j, tr := range cols {
		colSlot[j] = -1
		if colNeeded[j] {
			colSlot[j] = assign(tr)
		}
	}

	preps := make([]*core.Prepared, len(uniq))
	var profs []*core.Profile
	if popts != nil {
		profs = make([]*core.Profile, len(uniq))
	}
	if err := ForEach(ctx, len(uniq), workers, func(i int) error {
		p, err := m.Prepare(uniq[i])
		if err != nil {
			return fmt.Errorf("engine: prepare %q: %w", uniq[i].ID, err)
		}
		preps[i] = p
		if popts != nil {
			prof, err := m.Profile(p, *popts)
			if err != nil {
				return fmt.Errorf("engine: profile %q: %w", uniq[i].ID, err)
			}
			profs[i] = prof
		}
		return nil
	}); err != nil {
		return nil, err
	}

	pm.alloc()
	gather := func(slots []int, sidePreps []*core.Prepared, sideProfs []*core.Profile) {
		for k, slot := range slots {
			if slot < 0 {
				continue
			}
			if sidePreps != nil {
				sidePreps[k] = preps[slot]
			}
			if sideProfs != nil {
				sideProfs[k] = profs[slot]
			}
		}
	}
	gather(rowSlot, pm.rowPrep, pm.rowProf)
	gather(colSlot, pm.colPrep, pm.colProf)
	var st pruneCounters
	return pm.fill(ctx, workers, mask, minScore, &st)
}

// pairMatrix is one rows × cols scoring with each side's per-trajectory
// state resolved: the generic lane scores pairs with scorer; the exact lane
// reads prepared forms; the profiled lane reads scoring profiles. A bounded
// matrix enforces its floor through scoreMinPair and so also holds profiles
// on the exact lane, there as bound profiles.
type pairMatrix struct {
	scorer     Scorer // non-nil selects the generic lane
	m          *core.Measure
	profiled   bool
	bounded    bool
	rows, cols model.Dataset

	rowPrep, colPrep []*core.Prepared
	rowProf, colProf []*core.Profile
}

// alloc sizes the per-side slices the lane reads; the others stay nil.
func (pm *pairMatrix) alloc() {
	if !pm.profiled {
		pm.rowPrep = make([]*core.Prepared, len(pm.rows))
		pm.colPrep = make([]*core.Prepared, len(pm.cols))
	}
	if pm.profiled || pm.bounded {
		pm.rowProf = make([]*core.Profile, len(pm.rows))
		pm.colProf = make([]*core.Profile, len(pm.cols))
	}
}

// fill scores every admissible pair. Entries below minScore, masked-out
// pairs and NaN scores are −Inf. st collects the bounded lane's prune
// counters and is unused (may be nil) otherwise.
func (pm *pairMatrix) fill(ctx context.Context, workers int, mask [][]bool, minScore float64, st *pruneCounters) ([][]float64, error) {
	var pair func(i, j int) (float64, error)
	switch {
	case pm.scorer != nil:
		pair = func(i, j int) (float64, error) { return pm.scorer.Score(pm.rows[i], pm.cols[j]) }
	case pm.bounded && pm.profiled:
		pair = func(i, j int) (float64, error) {
			return scoreMinPair(nil, nil, nil, pm.rowProf[i], pm.colProf[j], minScore, st)
		}
	case pm.bounded:
		pair = func(i, j int) (float64, error) {
			return scoreMinPair(pm.m, pm.rowPrep[i], pm.colPrep[j], pm.rowProf[i], pm.colProf[j], minScore, st)
		}
	case pm.profiled:
		pair = func(i, j int) (float64, error) { return core.SimilarityProfiled(pm.rowProf[i], pm.colProf[j]) }
	default:
		pair = func(i, j int) (float64, error) { return pm.m.SimilarityPrepared(pm.rowPrep[i], pm.colPrep[j]) }
	}
	return matrix(ctx, len(pm.rows), len(pm.cols), workers, func(i, j int) (float64, error) {
		if mask != nil && !mask[i][j] {
			return math.Inf(-1), nil
		}
		v, err := pair(i, j)
		if err != nil || v >= minScore {
			return v, err
		}
		return math.Inf(-1), nil
	})
}

// floorOf normalizes a score floor: NaN means no floor (−Inf).
func floorOf(minScore float64) float64 {
	if math.IsNaN(minScore) {
		return math.Inf(-1)
	}
	return minScore
}

// neededSides marks the rows and columns that appear in at least one
// admissible pair. A nil mask needs everything.
func neededSides(n, m int, mask [][]bool) (rows, cols []bool) {
	rows = make([]bool, n)
	cols = make([]bool, m)
	if mask == nil {
		for i := range rows {
			rows[i] = true
		}
		for j := range cols {
			cols[j] = true
		}
		return rows, cols
	}
	for i := range mask {
		for j, ok := range mask[i] {
			if ok {
				rows[i] = true
				cols[j] = true
			}
		}
	}
	return rows, cols
}

// scoreMinPair evaluates one pair under a score floor: bound first, refine
// with early exit only if the bound passes. A nil measure selects the
// profiled scorer (fa/fb are then scoring profiles, pa/pb unused). Returns
// −Inf when the score is provably below minScore; any returned finite
// score is exact (identical to the unthresholded scorer).
func scoreMinPair(m *core.Measure, pa, pb *core.Prepared, fa, fb *core.Profile, minScore float64, st *pruneCounters) (float64, error) {
	st.considered.Add(1)
	var ub float64
	var err error
	if m == nil {
		ub, err = core.UpperBoundProfiled(fa, fb)
	} else {
		ub, err = core.UpperBound(fa, fb)
	}
	if err != nil {
		return 0, err
	}
	if ub < minScore {
		st.boundPruned.Add(1)
		return math.Inf(-1), nil
	}
	if ub == 0 {
		// An admissible zero bound certifies a floating-point-exact zero
		// score, and 0 >= minScore here — keep it, exactly as the
		// exhaustive matrix would.
		st.boundPruned.Add(1)
		return 0, nil
	}
	var v float64
	var ok bool
	if m == nil {
		v, ok, err = core.SimilarityProfiledThreshold(fa, fb, minScore)
	} else {
		v, ok, err = m.RefineThreshold(pa, pb, fa, fb, minScore)
	}
	if err != nil {
		return 0, err
	}
	if !ok {
		st.earlyExited.Add(1)
		return math.Inf(-1), nil
	}
	st.refined.Add(1)
	if v < minScore || math.IsNaN(v) {
		return math.Inf(-1), nil
	}
	return v, nil
}
