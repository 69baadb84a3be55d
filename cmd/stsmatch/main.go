// Command stsmatch ranks the trajectories of one dataset against another
// by a chosen similarity measure — the trajectory-matching application of
// Section VI-B — or scores a single pair.
//
// Usage:
//
//	stsmatch -d1 a.csv -d2 b.csv -grid 3 -sigma 3          # full matching, STS
//	stsmatch -d1 a.csv -d2 b.csv -method CATS              # baseline measure
//	stsmatch -d1 a.csv -d2 b.csv -id1 ped-0001 -id2 ped-0002  # one pair
//	stsmatch -d1 q.csv -d2 corpus.csv -top 5 -timeout 30s  # top-5, bounded
//
// When the two datasets are paired (row i of each observes the same
// object), the tool reports precision and mean rank; otherwise use -top to
// list the best matches per trajectory. The -top path runs through the
// engine: d2 becomes a corpus queried per d1 trajectory, with cached
// per-trajectory preparation shared across queries.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/stslib/sts/internal/baseline"
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/dataset"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/version"
)

func main() {
	var (
		d1Path  = flag.String("d1", "", "first dataset CSV (required)")
		d2Path  = flag.String("d2", "", "second dataset CSV (required)")
		method  = flag.String("method", "STS", "measure: STS, CATS, SST, WGM, APM, EDwP, KF, DTW")
		gridSz  = flag.Float64("grid", 0, "grid cell size in meters (default: sigma, or a 1/100 of the extent)")
		sigma   = flag.Float64("sigma", 0, "location noise sigma in meters (default: grid size)")
		id1     = flag.String("id1", "", "score a single pair: trajectory id in d1")
		id2     = flag.String("id2", "", "score a single pair: trajectory id in d2")
		top     = flag.Int("top", 0, "list the top-K matches for every trajectory of d1")
		paired  = flag.Bool("paired", true, "datasets are index-paired (report precision and mean rank)")
		strict  = flag.Bool("strict", false, "reject datasets with out-of-order samples instead of sorting them")
		timeout = flag.Duration("timeout", 0, "abort scoring after this duration (0 = no limit)")
		profile = flag.Float64("profile-bucket", 0, "STS only: bucketed-profile scoring with this bucket width in seconds (0 = exact; -1 = default width)")
		minSc   = flag.Float64("min-score", math.Inf(-1), "with -top: keep only matches scoring at least this, pruning weaker candidates via filter-and-refine")
		showVer = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("stsmatch", version.String())
		return
	}
	if *d1Path == "" || *d2Path == "" {
		fmt.Fprintln(os.Stderr, "stsmatch: -d1 and -d2 are required")
		flag.Usage()
		os.Exit(2)
	}
	ropts := dataset.ReadOptions{RejectUnsorted: *strict}
	d1, err := dataset.ReadFileWith(*d1Path, ropts)
	check(err)
	d2, err := dataset.ReadFileWith(*d2Path, ropts)
	check(err)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	scorer, err := buildScorer(*method, d1, d2, *gridSz, *sigma, *profile)
	check(err)

	if *id1 != "" || *id2 != "" {
		a, ok := byID(d1, *id1)
		if !ok {
			check(fmt.Errorf("id %q not found in %s", *id1, *d1Path))
		}
		b, ok := byID(d2, *id2)
		if !ok {
			check(fmt.Errorf("id %q not found in %s", *id2, *d2Path))
		}
		v, err := scorer.Score(a, b)
		check(err)
		fmt.Printf("%s(%s, %s) = %.6g\n", scorer.Name(), a.ID, b.ID, v)
		return
	}

	if *top > 0 {
		// d2 is the corpus; every d1 trajectory queries it through one
		// engine, so per-trajectory preparation is cached across queries.
		eng, err := engine.New(scorer, engine.Options{})
		check(err)
		for _, tr := range d2 {
			_, err := eng.Add(tr)
			check(err)
		}
		for _, q := range d1 {
			matches, err := eng.TopKOpts(ctx, q, engine.TopKOptions{K: *top, MinScore: *minSc})
			check(err)
			fmt.Printf("%s:", q.ID)
			for _, m := range matches {
				fmt.Printf("  %s=%.4g", m.ID, m.Score)
			}
			fmt.Println()
		}
		stats := eng.CacheStats()
		fmt.Printf("# prepared cache: %d hits / %d misses (%.0f%% hit rate)\n",
			stats.Hits, stats.Misses, 100*stats.HitRate())
		if ps := eng.ProfileCacheStats(); ps.Hits+ps.Misses > 0 {
			fmt.Printf("# profile cache:  %d hits / %d misses (%.0f%% hit rate)\n",
				ps.Hits, ps.Misses, 100*ps.HitRate())
		}
		if pr := eng.PruneStats(); pr.Considered > 0 {
			fmt.Printf("# pruning: %d considered, %d bound-pruned, %d early-exited, %d refined\n",
				pr.Considered, pr.BoundPruned, pr.EarlyExited, pr.Refined)
		}
		return
	}

	if !*paired {
		check(fmt.Errorf("nothing to do: pass -top K, or -id1/-id2, or leave -paired=true"))
	}
	res, err := eval.Matching(ctx, d1, d2, scorer, 0)
	check(err)
	fmt.Printf("method=%s  n=%d  precision=%.4f  mean_rank=%.4f  elapsed=%s\n",
		scorer.Name(), len(d1), res.Precision, res.MeanRank, res.Elapsed)
}

// buildScorer assembles the requested measure with scales derived from
// the data when not given explicitly. profileBucket > 0 switches STS to
// bucketed-profile scoring with that bucket width; negative selects the
// default width.
func buildScorer(method string, d1, d2 model.Dataset, gridSize, sigma, profileBucket float64) (eval.Scorer, error) {
	all := append(append(model.Dataset{}, d1...), d2...)
	bounds, ok := all.Bounds()
	if !ok {
		return nil, fmt.Errorf("datasets contain no samples")
	}
	extent := bounds.Width()
	if bounds.Height() > extent {
		extent = bounds.Height()
	}
	if gridSize <= 0 {
		if sigma > 0 {
			gridSize = sigma
		} else {
			gridSize = extent / 100
		}
	}
	if sigma <= 0 {
		sigma = gridSize
	}
	medGap := baseline.MedianSamplingGap(all)
	if medGap <= 0 {
		medGap = 1
	}
	grid, err := geo.NewGrid(bounds.Expand(4*sigma+gridSize), gridSize)
	if err != nil {
		return nil, err
	}
	switch method {
	case "STS":
		m, err := core.NewSTS(grid, sigma)
		if err != nil {
			return nil, err
		}
		if profileBucket != 0 {
			popts := core.ProfileOptions{}
			if profileBucket > 0 {
				popts.BucketSeconds = profileBucket
			}
			return eval.NewSTSScorerProfiled("STS-P", m, popts), nil
		}
		return eval.NewSTSScorer("STS", m), nil
	case "CATS":
		p := baseline.CATSParams{Eps: 4 * sigma, Tau: 4 * medGap}
		return eval.FuncScorer{N: "CATS", F: func(a, b model.Trajectory) (float64, error) {
			return baseline.CATS(a, b, p), nil
		}}, nil
	case "SST":
		p := baseline.SSTParams{SpatialScale: 2*sigma + gridSize, TemporalScale: 2 * medGap}
		return eval.FuncScorer{N: "SST", F: func(a, b model.Trajectory) (float64, error) {
			return baseline.SST(a, b, p), nil
		}}, nil
	case "WGM":
		p := baseline.DefaultWGMParams(extent/10, 600)
		return eval.FuncScorer{N: "WGM", F: func(a, b model.Trajectory) (float64, error) {
			return baseline.WGM(a, b, p), nil
		}}, nil
	case "APM":
		return eval.FromDistance("APM", func(a, b model.Trajectory) float64 {
			return baseline.APM(a, b, grid)
		}), nil
	case "EDwP":
		return eval.FromDistance("EDwP", baseline.EDwP), nil
	case "KF":
		p := baseline.DefaultKalmanParams(sigma)
		return eval.FromDistance("KF", func(a, b model.Trajectory) float64 {
			return baseline.KF(a, b, p)
		}), nil
	case "DTW":
		return eval.FromDistance("DTW", baseline.DTW), nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

func byID(ds model.Dataset, id string) (model.Trajectory, bool) {
	for _, tr := range ds {
		if tr.ID == id {
			return tr, true
		}
	}
	return model.Trajectory{}, false
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "stsmatch: %v\n", err)
		os.Exit(1)
	}
}
