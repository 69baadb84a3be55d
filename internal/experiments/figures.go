package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/model"
)

// Config holds the experiment-wide knobs. The zero value selects defaults
// sized to finish a full figure in minutes on a laptop; the paper's own
// runs take thousands of seconds (Figure 12), so reduced dataset sizes
// are the expected operating point.
type Config struct {
	// N is the number of objects in the mall scenario (default 20).
	N int
	// TaxiN is the number of taxis (default 3×N). The taxi workload is
	// cheap per pair but needs a larger corpus to be confusable, matching
	// the paper's much larger taxi dataset.
	TaxiN int
	// Seed drives all generation and sub-sampling (default 1).
	Seed int64
	// Workers bounds scoring parallelism (0 = GOMAXPROCS).
	Workers int
	// Rates overrides the sampling-rate sweep (default 0.1 … 0.9, 1.0).
	Rates []float64
	// Pairs is the number of trajectory pairs in the cross-similarity
	// experiment (default 100; the paper uses 1000).
	Pairs int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.N == 0 {
		c.N = 20
	}
	if c.TaxiN == 0 {
		c.TaxiN = 3 * c.N
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if c.Pairs == 0 {
		c.Pairs = 100
	}
	return c
}

// Scenario constructs the named scenario under this configuration.
func (c Config) Scenario(name string) (Scenario, error) {
	c = c.WithDefaults()
	switch name {
	case "mall":
		return Mall(c.N, c.Seed), nil
	case "taxi":
		return Taxi(c.TaxiN, c.Seed), nil
	default:
		return Scenario{}, fmt.Errorf("experiments: unknown scenario %q (want mall or taxi)", name)
	}
}

// matchAll runs the matching experiment for every scorer on the same
// pair of datasets and returns the per-method results in scorer order.
func matchAll(d1, d2 model.Dataset, scorers []eval.Scorer, workers int) ([]eval.MatchResult, error) {
	out := make([]eval.MatchResult, len(scorers))
	for i, s := range scorers {
		r, err := eval.Matching(context.Background(), d1, d2, s, workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: matching with %s: %w", s.Name(), err)
		}
		out[i] = r
	}
	return out, nil
}

func methodNames(scorers []eval.Scorer) []string {
	out := make([]string, len(scorers))
	for i, s := range scorers {
		out[i] = s.Name()
	}
	return out
}

// SamplingRateSweep reproduces Figures 4 and 5: precision and mean rank
// versus the data sampling rate. For each rate q, both D(1) and D(2) are
// down-sampled at q and every measure matches the halves.
func SamplingRateSweep(sc Scenario, cfg Config) (precision, meanRank Table, err error) {
	cfg = cfg.WithDefaults()
	scorers, err := BuildScorers(sc, sc.GridSize, 0, AllMethods)
	if err != nil {
		return Table{}, Table{}, err
	}
	cols := methodNames(scorers)
	precision = Table{Title: fmt.Sprintf("Figure 4 (%s): precision vs data sampling rate", sc.Name), XLabel: "rate", Columns: cols}
	meanRank = Table{Title: fmt.Sprintf("Figure 5 (%s): mean rank vs data sampling rate", sc.Name), XLabel: "rate", Columns: cols}
	for pi, rate := range cfg.Rates {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(pi)*7919))
		d1 := model.DownsampleDataset(sc.D1, rate, rng)
		d2 := model.DownsampleDataset(sc.D2, rate, rng)
		results, err := matchAll(d1, d2, scorers, cfg.Workers)
		if err != nil {
			return Table{}, Table{}, err
		}
		pRow := make([]float64, len(results))
		rRow := make([]float64, len(results))
		for i, r := range results {
			pRow[i], rRow[i] = r.Precision, r.MeanRank
		}
		precision.AddRow(rate, pRow...)
		meanRank.AddRow(rate, rRow...)
	}
	return precision, meanRank, nil
}

// HeterogeneousSweep reproduces Figures 6 and 7: precision and mean rank
// versus the heterogeneous sampling rate α. D(1) keeps its full rate;
// only D(2) is down-sampled at α, so the two sides differ in rate by a
// factor 1/α.
func HeterogeneousSweep(sc Scenario, cfg Config) (precision, meanRank Table, err error) {
	cfg = cfg.WithDefaults()
	scorers, err := BuildScorers(sc, sc.GridSize, 0, AllMethods)
	if err != nil {
		return Table{}, Table{}, err
	}
	cols := methodNames(scorers)
	precision = Table{Title: fmt.Sprintf("Figure 6 (%s): precision vs heterogeneous rate alpha", sc.Name), XLabel: "alpha", Columns: cols}
	meanRank = Table{Title: fmt.Sprintf("Figure 7 (%s): mean rank vs heterogeneous rate alpha", sc.Name), XLabel: "alpha", Columns: cols}
	for pi, alpha := range cfg.Rates {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(pi)*104729))
		d2 := model.DownsampleDataset(sc.D2, alpha, rng)
		results, err := matchAll(sc.D1, d2, scorers, cfg.Workers)
		if err != nil {
			return Table{}, Table{}, err
		}
		pRow := make([]float64, len(results))
		rRow := make([]float64, len(results))
		for i, r := range results {
			pRow[i], rRow[i] = r.Precision, r.MeanRank
		}
		precision.AddRow(alpha, pRow...)
		meanRank.AddRow(alpha, rRow...)
	}
	return precision, meanRank, nil
}

// NoiseSweep reproduces Figures 8 and 9: precision and mean rank versus
// injected location noise β (Eq. 14). Both halves are distorted. Only
// STS is rebuilt per noise level: its noise model takes the localization
// error as an input ("the location noise distribution ... is available"),
// whereas the baselines keep their base-setting parameters, exactly as in
// the paper where their configurations come from their own prior works
// and are not re-tuned per distortion level. The down-sampling that sets
// the sweep's difficulty is drawn once and shared across levels so the
// curves isolate the effect of β.
func NoiseSweep(sc Scenario, cfg Config) (precision, meanRank Table, err error) {
	cfg = cfg.WithDefaults()
	precision = Table{Title: fmt.Sprintf("Figure 8 (%s): precision vs location noise", sc.Name), XLabel: "noise(m)", Columns: AllMethods}
	meanRank = Table{Title: fmt.Sprintf("Figure 9 (%s): mean rank vs location noise", sc.Name), XLabel: "noise(m)", Columns: AllMethods}
	baseScorers, err := BuildScorers(sc, sc.GridSize, 0, AllMethods)
	if err != nil {
		return Table{}, Table{}, err
	}
	downRng := rand.New(rand.NewSource(cfg.Seed + 7368787))
	base1 := model.DownsampleDataset(sc.D1, sc.NoiseSweepRate, downRng)
	base2 := model.DownsampleDataset(sc.D2, sc.NoiseSweepRate, downRng)
	for pi, beta := range sc.NoiseLevels {
		stsScorer, err := BuildScorers(sc, sc.GridSize, beta, []string{MethodSTS})
		if err != nil {
			return Table{}, Table{}, err
		}
		scorers := append([]eval.Scorer{stsScorer[0]}, baseScorers[1:]...)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(pi)*1299709))
		d1 := model.AddNoiseDataset(base1, beta, rng)
		d2 := model.AddNoiseDataset(base2, beta, rng)
		results, err := matchAll(d1, d2, scorers, cfg.Workers)
		if err != nil {
			return Table{}, Table{}, err
		}
		pRow := make([]float64, len(results))
		rRow := make([]float64, len(results))
		for i, r := range results {
			pRow[i], rRow[i] = r.Precision, r.MeanRank
		}
		precision.AddRow(beta, pRow...)
		meanRank.AddRow(beta, rRow...)
	}
	return precision, meanRank, nil
}

// Ablation reproduces one dataset group of Figure 10: precision and mean
// rank of STS against its variants STS-N, STS-G and STS-F under the fixed
// distortion sc.AblationNoise.
func Ablation(sc Scenario, cfg Config) (precision, meanRank Table, err error) {
	cfg = cfg.WithDefaults()
	beta := sc.AblationNoise
	rng := rand.New(rand.NewSource(cfg.Seed + 15485863))
	d1 := model.DownsampleDataset(sc.D1, sc.NoiseSweepRate, rng)
	d2 := model.DownsampleDataset(sc.D2, sc.NoiseSweepRate, rng)
	d1 = model.AddNoiseDataset(d1, beta, rng)
	d2 = model.AddNoiseDataset(d2, beta, rng)
	train := append(append(model.Dataset{}, d1...), d2...)
	scorers, err := BuildAblationScorers(sc, beta, train)
	if err != nil {
		return Table{}, Table{}, err
	}
	results, err := matchAll(d1, d2, scorers, cfg.Workers)
	if err != nil {
		return Table{}, Table{}, err
	}
	cols := methodNames(scorers)
	precision = Table{Title: fmt.Sprintf("Figure 10(a) (%s): precision of STS variants (noise %gm)", sc.Name, beta), XLabel: "noise(m)", Columns: cols}
	meanRank = Table{Title: fmt.Sprintf("Figure 10(b) (%s): mean rank of STS variants (noise %gm)", sc.Name, beta), XLabel: "noise(m)", Columns: cols}
	pRow := make([]float64, len(results))
	rRow := make([]float64, len(results))
	for i, r := range results {
		pRow[i], rRow[i] = r.Precision, r.MeanRank
	}
	precision.AddRow(beta, pRow...)
	meanRank.AddRow(beta, rRow...)
	return precision, meanRank, nil
}

// CrossSim reproduces Figure 11: the cross-similarity deviation (Eq. 13)
// versus the sampling rate α, for STS, CATS, SST and WGM, averaged over
// randomly selected trajectory pairs.
//
// Eq. 13 is a relative change of a *distance* d(Tra1, Tra2). All four
// measures here are similarities in [0, 1], so the sweep evaluates the
// deviation of d = 1 − s. Evaluating it on the raw similarity instead
// would divide by values that are numerically zero for the many random
// pairs with no spatial-temporal overlap, and the metric would measure
// floating-point noise rather than stability.
func CrossSim(sc Scenario, cfg Config) (Table, error) {
	cfg = cfg.WithDefaults()
	scorers, err := BuildScorers(sc, sc.GridSize, 0, CrossSimMethods)
	if err != nil {
		return Table{}, err
	}
	for i, s := range scorers {
		scorers[i] = oneMinus(s)
	}
	pairRng := rand.New(rand.NewSource(cfg.Seed + 32452843))
	pairs, err := eval.RandomPairs(sc.Base, cfg.Pairs, pairRng)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 11 (%s): cross-similarity deviation vs sampling rate", sc.Name),
		XLabel:  "rate",
		Columns: methodNames(scorers),
	}
	var alphas []float64
	for _, alpha := range cfg.Rates {
		if alpha < 1 { // deviation is 0 by construction at full rate
			alphas = append(alphas, alpha)
		}
	}
	series := make([][]float64, len(scorers))
	for i, s := range scorers {
		rng := rand.New(rand.NewSource(cfg.Seed + 2750159 + int64(i)))
		devs, err := eval.CrossSimilaritySweep(pairs, s, alphas, rng, cfg.Workers)
		if err != nil {
			return Table{}, fmt.Errorf("experiments: cross-similarity with %s: %w", s.Name(), err)
		}
		series[i] = devs
	}
	for ai, alpha := range alphas {
		row := make([]float64, len(scorers))
		for i := range scorers {
			row[i] = series[i][ai]
		}
		t.AddRow(alpha, row...)
	}
	return t, nil
}

// oneMinus converts a [0,1]-similarity scorer into the corresponding
// distance scorer d = 1 − s, keeping the name.
func oneMinus(s eval.Scorer) eval.Scorer {
	return eval.FuncScorer{N: s.Name(), F: func(a, b model.Trajectory) (float64, error) {
		v, err := s.Score(a, b)
		return 1 - v, err
	}}
}

// GridSweep reproduces Figures 12, 13 and 14: STS's running time,
// precision and mean rank as the grid size varies. Like the noise and
// ablation experiments it runs in the calibrated sparse + distorted
// regime (DESIGN.md §4b): on full-rate clean data at this corpus size
// every grid size scores 1.0 and the effectiveness panels would carry no
// information; under sparsity and noise the paper's trade-off — finer
// grids cost time but preserve precision, with a knee near the
// localization error — becomes measurable.
func GridSweep(sc Scenario, cfg Config) (timing, precision, meanRank Table, err error) {
	cfg = cfg.WithDefaults()
	timing = Table{Title: fmt.Sprintf("Figure 12 (%s): running time vs grid size", sc.Name), XLabel: "grid(m)", Columns: []string{"time(s)"}}
	precision = Table{Title: fmt.Sprintf("Figure 13 (%s): precision vs grid size", sc.Name), XLabel: "grid(m)", Columns: []string{"precision"}}
	meanRank = Table{Title: fmt.Sprintf("Figure 14 (%s): mean rank vs grid size", sc.Name), XLabel: "grid(m)", Columns: []string{"mean rank"}}
	beta := sc.AblationNoise
	rng := rand.New(rand.NewSource(cfg.Seed + 9576890767))
	d1 := model.DownsampleDataset(sc.D1, sc.NoiseSweepRate, rng)
	d2 := model.DownsampleDataset(sc.D2, sc.NoiseSweepRate, rng)
	d1 = model.AddNoiseDataset(d1, beta, rng)
	d2 = model.AddNoiseDataset(d2, beta, rng)
	for _, gs := range sc.GridSizes {
		scorers, err := BuildScorers(sc, gs, beta, []string{MethodSTS})
		if err != nil {
			return Table{}, Table{}, Table{}, err
		}
		r, err := eval.Matching(context.Background(), d1, d2, scorers[0], cfg.Workers)
		if err != nil {
			return Table{}, Table{}, Table{}, err
		}
		timing.AddRow(gs, r.Elapsed.Seconds())
		precision.AddRow(gs, r.Precision)
		meanRank.AddRow(gs, r.MeanRank)
	}
	return timing, precision, meanRank, nil
}
