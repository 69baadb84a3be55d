package experiments

import (
	"context"
	"testing"

	"github.com/stslib/sts/internal/eval"
)

// BenchmarkMatrixScoringMallFine mirrors the matrix_scoring/mall/grid=1.5
// row of the stsbench perf suite (the finest-grid, most cache-sensitive
// regime) so the hot path can be profiled with plain `go test -bench`.
func BenchmarkMatrixScoringMallFine(b *testing.B) {
	sc := Mall(8, 1)
	scorers, err := BuildScorers(sc, sc.GridSize*0.5, 0, []string{MethodSTS})
	if err != nil {
		b.Fatal(err)
	}
	ms := scorers[0].(*eval.STSScorer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ScoreMatrix(context.Background(), sc.D1, sc.D2, ms, eval.MatrixOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
