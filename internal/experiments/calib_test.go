package experiments

import (
	"context"
	"testing"

	"github.com/stslib/sts/internal/eval"
)

// TestCalibrateNoiseSweep spot-checks the noise-experiment difficulty at
// its extremes before committing to a long full run. It is a calibration
// aid rather than a correctness test, so it only runs with -run
// explicitly or outside -short mode.
func TestCalibrateNoiseSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	for _, name := range []string{"mall", "taxi"} {
		cfg := Config{N: 20}.WithDefaults()
		sc, err := cfg.Scenario(name)
		if err != nil {
			t.Fatal(err)
		}
		thin := sc
		thin.NoiseLevels = []float64{sc.NoiseLevels[0], sc.NoiseLevels[len(sc.NoiseLevels)-1]}
		prec, _, err := NoiseSweep(thin, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range prec.Rows {
			t.Logf("%s beta=%v: %v %v", name, row.X, prec.Columns, row.Values)
		}
	}
}

// TestCalibrateCATSFullRate checks CATS does not collapse at full rate:
// a regression test for the clue-tolerance scaling.
func TestCalibrateCATSFullRate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	cfg := Config{N: 20}.WithDefaults()
	sc, err := cfg.Scenario("taxi")
	if err != nil {
		t.Fatal(err)
	}
	scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodCATS})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eval.Matching(context.Background(), sc.D1, sc.D2, scorers[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CATS taxi full rate: precision=%.2f meanRank=%.2f", r.Precision, r.MeanRank)
	if r.Precision < 0.8 {
		t.Errorf("CATS still collapsing at full rate: %v", r.Precision)
	}
}
