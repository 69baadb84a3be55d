package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
)

// tableWorld is the fixture of TestScoringTable: clean rows × cols with a
// spread of scores (overlapping walks, a far column scoring zero), plus
// one row and one column whose samples are out of time order. Those two
// appear only in masked-out pairs, so preparing them — or handing them to
// a pairwise scorer — fails the call.
type tableWorld struct {
	rows, cols                 model.Dataset
	poisonedRows, poisonedCols model.Dataset // rows, cols + one poison each
	partial                    [][]bool      // over poisonedRows × poisonedCols
}

func newTableWorld() tableWorld {
	var w tableWorld
	for i := 0; i < 5; i++ {
		w.rows = append(w.rows, walk(fmt.Sprintf("r%d", i), 100+30*float64(i), 100+10*float64(i), 5, 10, 8))
		w.cols = append(w.cols, walk(fmt.Sprintf("c%d", i), 105+30*float64(i), 102+10*float64(i), 5, 10, 8))
	}
	w.cols = append(w.cols, walk("c-far", 900, 900, 5, 10, 8))
	unsorted := func(id string) model.Trajectory {
		tr := walk(id, 300, 300, 5, 10, 4)
		tr.Samples[0].T, tr.Samples[3].T = tr.Samples[3].T, tr.Samples[0].T
		return tr
	}
	w.poisonedRows = append(append(model.Dataset{}, w.rows...), unsorted("r-poison"))
	w.poisonedCols = append(append(model.Dataset{}, w.cols...), unsorted("c-poison"))
	w.partial = make([][]bool, len(w.poisonedRows))
	for i := range w.partial {
		w.partial[i] = make([]bool, len(w.poisonedCols))
		for j := range w.partial[i] {
			w.partial[i][j] = i < len(w.rows) && j < len(w.cols) && (i+j)%3 != 0
		}
	}
	return w
}

// countingScorer is the generic lane: a baseline-style negative distance
// between first locations that counts its calls and rejects the poison
// trajectories.
type countingScorer struct {
	t     *testing.T
	calls atomic.Int64
}

func (c *countingScorer) Name() string { return "neg-dist" }

func (c *countingScorer) Score(a, b model.Trajectory) (float64, error) {
	c.calls.Add(1)
	if a.Validate() != nil || b.Validate() != nil {
		c.t.Errorf("scored masked-only pair %s/%s", a.ID, b.ID)
	}
	return -math.Hypot(a.Samples[0].Loc.X-b.Samples[0].Loc.X, a.Samples[0].Loc.Y-b.Samples[0].Loc.Y), nil
}

// median returns the median of the finite entries of m (a floor that
// splits the matrix).
func median(m [][]float64) float64 {
	var vs []float64
	for _, row := range m {
		for _, v := range row {
			if !math.IsInf(v, 0) && v != 0 {
				vs = append(vs, v)
			}
		}
	}
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

// TestScoringTable is the equivalence table of matrix scoring: for every
// lane (generic pairwise scorer, exact STS, profiled STS) × mask (nil,
// partial with masked-only trajectories) × floor (none, θ) × workers, the
// one-shot eval.ScoreMatrix, Engine.ScoreBatchMin and a 4-shard
// Sharded.ScoreBatchMin return bit-identical matrices, every entry equals
// the unmasked, unfloored oracle floored at θ, and masked-only
// trajectories are never prepared. Linking and cancellation run through
// the same entry points below.
func TestScoringTable(t *testing.T) {
	ctx := context.Background()
	w := newTableWorld()
	m, err := core.NewSTS(testGrid(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	generic := &countingScorer{t: t}
	lanes := []struct {
		name   string
		scorer eval.Scorer
	}{
		{"generic", generic},
		{"exact", eval.NewSTSScorer("STS", m)},
		{"profiled", eval.NewSTSScorerProfiled("STS-P", m, core.ProfileOptions{BucketSeconds: 20})},
	}
	for _, lane := range lanes {
		// The zero options value applies no floor: the generic lane's
		// negative scores come back as they are.
		oracle, err := eval.ScoreMatrix(ctx, w.rows, w.cols, lane.scorer, eval.MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if lane.name == "generic" && !(oracle[0][0] < 0) {
			t.Fatalf("generic oracle %v: want negative scores", oracle[0][0])
		}
		theta := median(oracle)
		for _, masked := range []bool{false, true} {
			for _, floored := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/mask=%v/floor=%v/workers=%d", lane.name, masked, floored, workers)
					t.Run(name, func(t *testing.T) {
						rows, cols, mask := w.rows, w.cols, [][]bool(nil)
						if masked {
							rows, cols, mask = w.poisonedRows, w.poisonedCols, w.partial
						}
						opts := eval.MatrixOptions{Mask: mask, Workers: workers}
						minScore := math.Inf(-1)
						if floored {
							opts.MinScore, minScore = &theta, theta
						}
						want := make([][]float64, len(rows))
						admissible := int64(0)
						for i := range want {
							want[i] = make([]float64, len(cols))
							for j := range want[i] {
								want[i][j] = math.Inf(-1)
								if mask != nil && !mask[i][j] {
									continue
								}
								admissible++
								if v := oracle[i][j]; v >= minScore {
									want[i][j] = v
								}
							}
						}

						check := func(label string, score func() ([][]float64, error)) {
							t.Helper()
							generic.calls.Store(0)
							got, err := score()
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							diffMatrix(t, label, got, want)
							if lane.name == "generic" && generic.calls.Load() != admissible {
								t.Errorf("%s scored %d pairs, want the %d admissible", label, generic.calls.Load(), admissible)
							}
						}
						check("eval.ScoreMatrix", func() ([][]float64, error) {
							return eval.ScoreMatrix(ctx, rows, cols, lane.scorer, opts)
						})

						eng, err := engine.New(lane.scorer, engine.Options{Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						check("Engine.ScoreBatchMin", func() ([][]float64, error) {
							return eng.ScoreBatchMin(ctx, rows, cols, mask, minScore)
						})
						// Every clean row and column has an admissible pair under
						// the partial mask; the poison ones have none.
						if needed := uint64(len(w.rows) + len(w.cols)); lane.name != "generic" && eng.CacheStats().Misses != needed {
							t.Errorf("prepared %d trajectories, want the %d in admissible pairs", eng.CacheStats().Misses, needed)
						}
						if lane.name == "exact" && !floored {
							if ps := eng.ProfileCacheStats(); ps.Hits+ps.Misses != 0 {
								t.Errorf("unfloored exact lane touched the profile cache: %+v", ps)
							}
						}
						if lane.name != "generic" && floored && eng.PruneStats().BoundPruned+eng.PruneStats().EarlyExited == 0 {
							t.Errorf("floor pruned nothing: %+v", eng.PruneStats())
						}

						sharded, err := engine.NewSharded(lane.scorer, engine.ShardedOptions{
							Shards:       4,
							ShardOptions: func(int) (engine.Options, error) { return engine.Options{Workers: workers}, nil },
						})
						if err != nil {
							t.Fatal(err)
						}
						check("Sharded.ScoreBatchMin", func() ([][]float64, error) {
							return sharded.ScoreBatchMin(ctx, rows, cols, mask, minScore)
						})
						if !floored {
							check("Sharded.ScoreBatch", func() ([][]float64, error) {
								return sharded.ScoreBatch(ctx, rows, cols, mask)
							})
						}
					})
				}
			}
		}
	}

	t.Run("link", func(t *testing.T) { linkTable(t, m) })
	t.Run("cancel", cancelTable)
}

// linkTable checks that greedy and optimal linking produce identical links
// through every implementation of the linking seam: a transient matrix over
// a plain scorer, a single engine and a 4-shard coordinator — FTL
// pre-filter and thresholds included.
func linkTable(t *testing.T, m *core.Measure) {
	ctx := context.Background()
	scorer := eval.NewSTSScorer("STS", m)
	d1 := model.Dataset{
		walk("a", 100, 100, 5, 10, 5),
		walk("b", 100, 150, 7.5, 10, 5),
		walk("c", 100, 50, 2.5, 10, 5),
	}
	d2 := model.Dataset{
		walk("c2", 102.5, 50, 2.5, 10, 4),
		walk("a2", 105, 100, 5, 10, 4),
		walk("b2", 107.5, 150, 7.5, 10, 4),
	}
	single, err := engine.New(scorer, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.NewSharded(scorer, engine.ShardedOptions{
		Shards:       4,
		ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	seams := []struct {
		name string
		b    linking.Batcher
	}{
		{"transient", eval.Transient{Scorer: scorer, Workers: 2}},
		{"engine", single},
		{"sharded", sharded},
	}
	linkers := []struct {
		name string
		f    func(context.Context, linking.Batcher, model.Dataset, model.Dataset, linking.Options) ([]linking.Link, error)
	}{
		{"greedy", linking.GreedyLink},
		{"optimal", linking.OptimalLink},
	}
	for _, opts := range []linking.Options{
		{},
		{MaxSpeed: 3, MinGap: 1},
		{MinScore: 0.01, MaxSpeed: 3},
		{MinScore: 0.01},
	} {
		for _, lk := range linkers {
			var want []linking.Link
			for k, s := range seams {
				got, err := lk.f(ctx, s.b, d1, d2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					want = got
					if len(want) == 0 {
						t.Fatalf("%s %+v: no links; the case is vacuous", lk.name, opts)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s %+v via %s: %d links, want %d", lk.name, opts, s.name, len(got), len(want))
				}
				for i := range want {
					if got[i].I != want[i].I || got[i].J != want[i].J ||
						math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s %+v via %s: link %d = %+v, want %+v", lk.name, opts, s.name, i, got[i], want[i])
					}
				}
			}
		}
	}
	for _, lk := range linkers {
		for _, s := range seams {
			if _, err := lk.f(ctx, s.b, nil, d2, linking.Options{}); !errors.Is(err, linking.ErrEmptyInput) {
				t.Fatalf("%s via %s, empty d1: err=%v", lk.name, s.name, err)
			}
		}
	}
}

// cancelTable requires every matrix-scoring and linking entry point to
// return context.Canceled promptly, without leaked goroutines, when its
// context is cancelled mid-scoring.
func cancelTable(t *testing.T) {
	d1, d2 := cancelDataset("r", 40), cancelDataset("c", 40)
	s := slowScorer(5 * time.Millisecond) // 1600 pairs ≈ 8s serial if uncancelled
	eng, err := engine.New(s, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.NewSharded(s, engine.ShardedOptions{
		Shards:       4,
		ShardOptions: func(int) (engine.Options, error) { return engine.Options{Workers: 1}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	transient := eval.Transient{Scorer: s, Workers: 2}
	for _, tc := range []struct {
		name string
		f    func(ctx context.Context) error
	}{
		{"eval.ScoreMatrix", func(ctx context.Context) error {
			_, err := eval.ScoreMatrix(ctx, d1, d2, s, eval.MatrixOptions{Workers: 2})
			return err
		}},
		{"Engine.ScoreBatchMin", func(ctx context.Context) error {
			_, err := eng.ScoreBatchMin(ctx, d1, d2, nil, math.Inf(-1))
			return err
		}},
		{"Sharded.ScoreBatchMin", func(ctx context.Context) error {
			_, err := sharded.ScoreBatchMin(ctx, d1, d2, nil, 0.5)
			return err
		}},
		{"eval.Matching", func(ctx context.Context) error {
			_, err := eval.Matching(ctx, d1, d2, s, 2)
			return err
		}},
		{"linking.GreedyLink", func(ctx context.Context) error {
			_, err := linking.GreedyLink(ctx, transient, d1, d2, linking.Options{})
			return err
		}},
		{"linking.OptimalLink", func(ctx context.Context) error {
			_, err := linking.OptimalLink(ctx, transient, d1[:30], d2[:30], linking.Options{})
			return err
		}},
	} {
		expectCancelled(t, tc.name, tc.f)
	}
}
