package sts_test

import (
	"context"
	"math"
	"testing"

	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/experiments"
	"github.com/stslib/sts/internal/index"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
)

// cheapScorer is a fast stand-in similarity for harness benches whose
// subject is the surrounding machinery, not the measure.
var cheapScorer = eval.FuncScorer{N: "cheap", F: func(a, b model.Trajectory) (float64, error) {
	lo := math.Max(a.Start(), b.Start())
	hi := math.Min(a.End(), b.End())
	if lo >= hi {
		return 0, nil
	}
	pa, _ := a.InterpolateAt((lo + hi) / 2)
	pb, _ := b.InterpolateAt((lo + hi) / 2)
	return 1 / (1 + pa.Dist(pb)), nil
}}

// BenchmarkIndexTopK compares a pruned top-k query against exhaustive
// scoring over the taxi corpus, reporting the surviving candidate
// fraction.
func BenchmarkIndexTopK(b *testing.B) {
	_, taxi := benchScenarios(b)
	grid, err := taxi.Grid(taxi.GridSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.Build(taxi.D2, index.Options{
		Grid:         grid,
		TimeBucket:   120,
		SpatialSlack: 400,
		TimeSlack:    120,
	})
	if err != nil {
		b.Fatal(err)
	}
	query := taxi.D1[0]
	b.Run("pruned", func(b *testing.B) {
		var survived int
		for i := 0; i < b.N; i++ {
			if _, err := ix.TopK(query, cheapScorer, 5, 1); err != nil {
				b.Fatal(err)
			}
			survived = len(ix.Candidates(query))
		}
		b.ReportMetric(float64(survived)/float64(len(taxi.D2)), "candidate-fraction")
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.ScoreMatrix(context.Background(), model.Dataset{query}, taxi.D2, cheapScorer, eval.MatrixOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLinking compares the greedy and Hungarian linkers on the taxi
// split, reporting their linking precision.
func BenchmarkLinking(b *testing.B) {
	_, taxi := benchScenarios(b)
	scorer := pairScorers(b, taxi, []string{experiments.MethodSTS})[0]
	opts := linking.Options{MinScore: 1e-9, Workers: 1}
	for _, tc := range []struct {
		name string
		f    func(ctx context.Context, b linking.Batcher, d1, d2 model.Dataset, o linking.Options) ([]linking.Link, error)
	}{
		{"greedy", linking.GreedyLink},
		{"optimal", linking.OptimalLink},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var precision float64
			for i := 0; i < b.N; i++ {
				links, err := tc.f(context.Background(), eval.Transient{Scorer: scorer, Workers: opts.Workers}, taxi.D1, taxi.D2, opts)
				if err != nil {
					b.Fatal(err)
				}
				correct := 0
				for _, l := range links {
					if l.I == l.J {
						correct++
					}
				}
				if len(links) > 0 {
					precision = float64(correct) / float64(len(links))
				}
			}
			b.ReportMetric(precision, "link-precision")
		})
	}
}
