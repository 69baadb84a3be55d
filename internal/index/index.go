// Package index provides a grid × time-bucket inverted index over a
// trajectory corpus, used to prune candidates before running an expensive
// similarity measure. Spatial-temporal similarity is zero (or negligible)
// for trajectory pairs that never come close in space and time, so a top-k
// query only needs to score trajectories that share at least one dilated
// spatio-temporal key with the query — typically a small fraction of a
// large corpus.
//
// The index is mutable: New builds an empty index whose postings are
// updated incrementally with Insert and Remove as the corpus changes (the
// engine package drives this under corpus mutation), while Build preserves
// the original one-shot immutable construction over a whole dataset.
// Postings are lock-striped across shards, so concurrent queries proceed
// in parallel with mutations touching other shards.
package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// Options configures an Index.
type Options struct {
	// Grid is the spatial partitioning used for the index keys
	// (required). It does not have to match the measure's grid.
	Grid *geo.Grid
	// TimeBucket is the temporal quantum in seconds (required, > 0).
	// Observations within the same bucket are considered co-temporal.
	TimeBucket float64
	// SpatialSlack dilates each query sample by this radius in meters
	// when probing the index, covering location noise and movement
	// between observations. Default: one grid cell.
	SpatialSlack float64
	// TimeSlack dilates each query sample by this many seconds. Default:
	// one time bucket.
	TimeSlack float64
}

// nShards is the lock-striping factor of the postings map. Shards are
// selected by key hash; 16 keeps contention negligible at typical
// mutation rates without bloating the empty index.
const nShards = 16

type key struct {
	cell   int32
	bucket int32
}

// shard is one lock-striped slice of the postings map.
type shard struct {
	mu       sync.RWMutex
	postings map[key][]int32
}

// Index is an inverted index from (cell, time bucket) keys to the corpus
// slots observed there. Queries and mutations are safe for concurrent
// use. It implements the engine package's Pruner interface, so an Engine
// keeps it up to date incrementally under Add/Remove/Replace.
type Index struct {
	opts   Options
	ds     model.Dataset // set by Build only; the legacy immutable view
	shards [nShards]shard
}

// ErrNoGrid is returned when Options.Grid is missing.
var ErrNoGrid = errors.New("index: Options.Grid is required")

// New returns an empty mutable index. Populate it with Insert (or hand it
// to an engine as its Pruner, which does so on corpus Add).
func New(opts Options) (*Index, error) {
	if opts.Grid == nil {
		return nil, ErrNoGrid
	}
	if opts.TimeBucket <= 0 {
		return nil, fmt.Errorf("index: TimeBucket must be positive, got %v", opts.TimeBucket)
	}
	if opts.SpatialSlack <= 0 {
		opts.SpatialSlack = opts.Grid.CellSize()
	}
	if opts.TimeSlack <= 0 {
		opts.TimeSlack = opts.TimeBucket
	}
	ix := &Index{opts: opts}
	for i := range ix.shards {
		ix.shards[i].postings = make(map[key][]int32)
	}
	return ix, nil
}

// Build indexes every sample of every trajectory in ds — the immutable
// one-shot path. The returned index also serves TopK directly against ds.
func Build(ds model.Dataset, opts Options) (*Index, error) {
	ix, err := New(opts)
	if err != nil {
		return nil, err
	}
	for ti, tr := range ds {
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		ix.Insert(ti, tr)
	}
	ix.ds = ds
	return ix, nil
}

func bucketOf(t, bucket float64) int {
	b := int(t / bucket)
	if t < 0 && t != float64(b)*bucket {
		b--
	}
	return b
}

// shardOf hashes a key onto its shard.
func (ix *Index) shardOf(k key) *shard {
	h := uint32(k.cell)*0x9e3779b9 ^ uint32(k.bucket)*0x85ebca6b
	return &ix.shards[h%nShards]
}

// keys iterates tr's distinct (cell, bucket) keys.
func (ix *Index) keys(tr model.Trajectory, f func(k key)) {
	seen := make(map[key]bool, len(tr.Samples))
	for _, s := range tr.Samples {
		k := key{cell: int32(ix.opts.Grid.Cell(s.Loc)), bucket: int32(bucketOf(s.T, ix.opts.TimeBucket))}
		if seen[k] {
			continue
		}
		seen[k] = true
		f(k)
	}
}

// Insert adds postings mapping every distinct (cell, bucket) key of tr to
// the given corpus slot. It implements engine.Pruner.
func (ix *Index) Insert(slot int, tr model.Trajectory) {
	ix.keys(tr, func(k key) {
		sh := ix.shardOf(k)
		sh.mu.Lock()
		sh.postings[k] = append(sh.postings[k], int32(slot))
		sh.mu.Unlock()
	})
}

// Remove deletes the slot from the postings of every key of tr — the
// inverse of Insert with the same trajectory. It implements engine.Pruner.
func (ix *Index) Remove(slot int, tr model.Trajectory) {
	ix.keys(tr, func(k key) {
		sh := ix.shardOf(k)
		sh.mu.Lock()
		list := sh.postings[k]
		for i, ti := range list {
			if ti == int32(slot) {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(sh.postings, k)
		} else {
			sh.postings[k] = list
		}
		sh.mu.Unlock()
	})
}

// Len returns the number of trajectories of the Build dataset (0 for a
// mutable index, whose corpus lives in the engine).
func (ix *Index) Len() int { return len(ix.ds) }

// Keys returns the number of distinct (cell, bucket) keys.
func (ix *Index) Keys() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		n += len(sh.postings)
		sh.mu.RUnlock()
	}
	return n
}

// Dataset returns the dataset indexed by Build (nil for a mutable index).
func (ix *Index) Dataset() model.Dataset { return ix.ds }

// Candidates returns the slots of trajectories sharing at least one
// dilated spatio-temporal key with the query, in ascending order. Each
// query sample is dilated to the axis-aligned cell box of half-width
// SpatialSlack and ±TimeSlack in time, so an object passing within that
// envelope of any query observation is a candidate. It implements
// engine.Pruner.
//
// Consecutive samples dilate to heavily overlapping boxes — an object
// advances a fraction of the slack per sampling period — so the scan
// probes only the rectangle difference against the previous sample's box
// whenever the time-bucket range carries over: cells inside the previous
// box were already probed for those buckets. This drops the postings
// probes per query from O(samples · box) to O(samples · box-perimeter ·
// velocity) without changing the returned set.
func (ix *Index) Candidates(query model.Trajectory) []int {
	found := make(map[int32]bool)
	nx := ix.opts.Grid.Cols()
	// One read-lock round per query instead of two atomics per probe:
	// mutators take a single shard lock at a time, so grabbing all shards
	// in index order cannot deadlock against them.
	for i := range ix.shards {
		ix.shards[i].mu.RLock()
	}
	defer func() {
		for i := range ix.shards {
			ix.shards[i].mu.RUnlock()
		}
	}()
	probe := func(cell, b int) {
		k := key{cell: int32(cell), bucket: int32(b)}
		for _, ti := range ix.shardOf(k).postings[k] {
			found[ti] = true
		}
	}
	var pc0, pc1, pr0, pr1, pb0, pb1 int
	first := true
	for _, s := range query.Samples {
		c0, c1, r0, r1 := ix.opts.Grid.CellRangeWithin(s.Loc, ix.opts.SpatialSlack)
		b0 := bucketOf(s.T-ix.opts.TimeSlack, ix.opts.TimeBucket)
		b1 := bucketOf(s.T+ix.opts.TimeSlack, ix.opts.TimeBucket)
		for b := b0; b <= b1; b++ {
			skipPrev := !first && b >= pb0 && b <= pb1
			for row := r0; row <= r1; row++ {
				rowInPrev := skipPrev && row >= pr0 && row <= pr1
				base := row * nx
				for col := c0; col <= c1; col++ {
					if rowInPrev && col >= pc0 && col <= pc1 {
						col = pc1 // skip the span probed at the previous sample
						continue
					}
					probe(base+col, b)
				}
			}
		}
		pc0, pc1, pr0, pr1, pb0, pb1 = c0, c1, r0, r1, b0, b1
		first = false
	}
	out := make([]int, 0, len(found))
	for ti := range found {
		out = append(out, int(ti))
	}
	sort.Ints(out)
	return out
}

// Match is one result of a top-k query.
type Match struct {
	// Index is the trajectory's position in the indexed dataset.
	Index int
	// Score is its similarity to the query.
	Score float64
}

// TopK is TopKContext without cancellation.
func (ix *Index) TopK(query model.Trajectory, scorer engine.Scorer, k, workers int) ([]Match, error) {
	return ix.TopKContext(context.Background(), query, scorer, k, workers)
}

// TopKContext scores the query against the Build dataset's candidate set
// and returns the k best matches by descending score (ties break by
// dataset position; fewer results when the candidate set is smaller).
// Trajectories outside the candidate set are never scored — they cannot
// overlap the query in space-time within the configured slack. Scoring is
// a thin view over the engine executor, so cancelling ctx aborts it
// promptly; a profiled scorer (engine.ProfileScorer with non-nil options,
// e.g. eval.NewSTSScorerProfiled) is scored through bucketed S-T profiles.
// Requires an index built with Build (a mutable engine-owned index serves
// queries through Engine.TopK instead).
func (ix *Index) TopKContext(ctx context.Context, query model.Trajectory, scorer engine.Scorer, k, workers int) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	if ix.ds == nil {
		return nil, errors.New("index: TopK needs a Build index; query mutable indexes through engine.Engine.TopK")
	}
	cand := ix.Candidates(query)
	if len(cand) == 0 {
		return nil, nil
	}
	sub := make(model.Dataset, len(cand))
	for i, ti := range cand {
		sub[i] = ix.ds[ti]
	}
	scores, err := engine.ScoreMatrix(ctx, scorer, model.Dataset{query}, sub, nil, math.Inf(-1), workers)
	if err != nil {
		return nil, err
	}
	matches := make([]Match, len(cand))
	for i, ti := range cand {
		matches[i] = Match{Index: ti, Score: scores[0][i]}
	}
	sort.Slice(matches, func(a, b int) bool {
		if matches[a].Score != matches[b].Score {
			return matches[a].Score > matches[b].Score
		}
		return matches[a].Index < matches[b].Index
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches, nil
}
