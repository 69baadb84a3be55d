package sts

import (
	"context"
	"math/rand"

	"github.com/stslib/sts/internal/baseline"
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/datagen"
	"github.com/stslib/sts/internal/dataset"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/kde"
	"github.com/stslib/sts/internal/markov"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// Geometry re-exports.
type (
	// Point is a planar location in meters.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Grid partitions an area of interest into equal-sized square cells.
	Grid = geo.Grid
)

// NewRect returns the rectangle spanning two corner points in any order.
func NewRect(a, b Point) Rect { return geo.NewRect(a, b) }

// NewGrid partitions bounds into square cells of the given size in meters.
func NewGrid(bounds Rect, cellSize float64) (*Grid, error) { return geo.NewGrid(bounds, cellSize) }

// Trajectory re-exports.
type (
	// Sample is one observed position: a location and its timestamp.
	Sample = model.Sample
	// Trajectory is a time-ordered sequence of samples for one object.
	Trajectory = model.Trajectory
	// Dataset is an ordered collection of trajectories.
	Dataset = model.Dataset
)

// AlternateSplit splits a trajectory into two interleaved halves, the
// ground-truth construction for trajectory matching (Figure 3).
func AlternateSplit(tr Trajectory) (a, b Trajectory) { return model.AlternateSplit(tr) }

// Downsample returns a random order-preserving sub-trajectory at the given
// sampling rate in (0, 1].
func Downsample(tr Trajectory, rate float64, rng *rand.Rand) Trajectory {
	return model.Downsample(tr, rate, rng)
}

// AddNoise distorts every sample with isotropic Gaussian noise of radius
// beta meters (Eq. 14 of the paper).
func AddNoise(tr Trajectory, beta float64, rng *rand.Rand) Trajectory {
	return model.AddNoise(tr, beta, rng)
}

// Measure re-exports.
type (
	// Measure computes the spatial-temporal similarity STS of Eq. 10.
	Measure = core.Measure
	// PreparedTrajectory caches per-trajectory state for repeated scoring.
	PreparedTrajectory = core.Prepared
	// NoiseModel describes a sensing system's location-noise distribution.
	NoiseModel = stprob.NoiseModel
	// GaussianNoise is the Gaussian noise model of Eq. 3.
	GaussianNoise = stprob.GaussianNoise
	// SpeedModel is a personalized kernel-density speed distribution.
	SpeedModel = kde.SpeedModel
)

// MeasureOptions configures NewMeasure.
type MeasureOptions struct {
	// Grid is the spatial partitioning (required).
	Grid *Grid
	// NoiseSigma is the sensing system's Gaussian location error in
	// meters. Zero selects the grid cell size, following the paper's
	// guidance that the grid should match the location error.
	NoiseSigma float64
	// Noise overrides the noise model entirely (takes precedence over
	// NoiseSigma).
	Noise NoiseModel
	// Exact disables support truncation, evaluating Eq. 4's sums over the
	// entire grid.
	Exact bool
	// SpeedSlack compensates for the grid's quantization of speeds when
	// evaluating transitions. 0 selects half the grid cell size; negative
	// disables it, recovering the textbook evaluation where cell centers
	// are the only realizable locations.
	SpeedSlack float64
}

// NewMeasure builds the full STS measure: Gaussian location noise and a
// personalized KDE speed model per trajectory.
func NewMeasure(opts MeasureOptions) (*Measure, error) {
	o := core.Options{Grid: opts.Grid, Exact: opts.Exact, SpeedSlack: opts.SpeedSlack}
	switch {
	case opts.Noise != nil:
		o.Noise = opts.Noise
	case opts.NoiseSigma > 0:
		o.Noise = stprob.GaussianNoise{Sigma: opts.NoiseSigma}
	}
	return core.New(o)
}

// NewSpeedModel estimates a trajectory's personalized speed distribution.
func NewSpeedModel(tr Trajectory) (*SpeedModel, error) { return kde.NewSpeedModel(tr) }

// NewPooledSpeedModel estimates a single global speed distribution from a
// dataset (the STS-G ablation's model).
func NewPooledSpeedModel(ds Dataset) (*SpeedModel, error) { return kde.NewPooledSpeedModel(ds) }

// Variant constructors for the ablations of Section VI-C.

// NewMeasureNoNoise returns STS-N: observations are deterministic points.
func NewMeasureNoNoise(grid *Grid) (*Measure, error) { return core.NewSTSN(grid) }

// NewMeasureGlobalSpeed returns STS-G: a pooled speed model shared by all
// objects.
func NewMeasureGlobalSpeed(grid *Grid, sigma float64, pooled *SpeedModel) (*Measure, error) {
	return core.NewSTSG(grid, sigma, pooled)
}

// NewMeasureFrequency returns STS-F: frequency-based grid transitions
// trained on historical data with markov.Train.
func NewMeasureFrequency(grid *Grid, sigma float64, train Dataset, maxSpeed float64) (*Measure, error) {
	tm, err := markov.Train(grid, train, 1)
	if err != nil {
		return nil, err
	}
	return core.NewSTSF(grid, sigma, tm, maxSpeed)
}

// Baseline distances (smaller = more similar), re-exported for
// side-by-side comparisons.

// DTW is the Dynamic Time Warping distance.
func DTW(a, b Trajectory) float64 { return baseline.DTW(a, b) }

// EDwP is the Edit Distance with Projections.
func EDwP(a, b Trajectory) float64 { return baseline.EDwP(a, b) }

// CATS is the Clue-Aware Trajectory Similarity (a similarity in [0,1]).
func CATS(a, b Trajectory, eps, tau float64) float64 {
	return baseline.CATS(a, b, baseline.CATSParams{Eps: eps, Tau: tau})
}

// LIP is the (approximated) Locality In-between Polylines area distance.
func LIP(a, b Trajectory) float64 { return baseline.LIP(a, b, 0) }

// STLIP is LIP with a multiplicative temporal penalty of weight w.
func STLIP(a, b Trajectory, w float64) float64 {
	return baseline.STLIP(a, b, baseline.STLIPParams{TemporalWeight: w})
}

// Evaluation re-exports.
type (
	// Scorer scores trajectory pairs; higher means more similar.
	Scorer = eval.Scorer
	// MatchResult reports a trajectory-matching run.
	MatchResult = eval.MatchResult
)

// NewScorer wraps a Measure as a Scorer for the evaluation harness, with
// per-trajectory preparation caching.
func NewScorer(name string, m *Measure) Scorer { return eval.NewSTSScorer(name, m) }

// Profile re-exports.
type (
	// ProfileOptions configures the bucketed S-T profile approximation:
	// BucketSeconds is the accuracy ↔ speed knob (0 selects the default
	// of 30 s; scores converge to the exact Eq. 10 values as it shrinks).
	ProfileOptions = core.ProfileOptions
	// TrajectoryProfile is a trajectory's precomputed sparse profile: one
	// location distribution per time bucket of its active span.
	TrajectoryProfile = core.Profile
)

// DefaultProfileBucketSeconds is the default profile bucket width.
const DefaultProfileBucketSeconds = core.DefaultProfileBucketSeconds

// NewProfiledScorer wraps a Measure as a Scorer that evaluates the
// bucketed S-T profile approximation of STS: each trajectory's sparse
// profile is built once and every pair score is a sparse dot-product
// merge over the shared time buckets. On N×N matrix and top-k workloads
// this amortizes the per-trajectory interpolation work (the dominant cost
// of exact scoring) from O(N) evaluations down to one.
func NewProfiledScorer(name string, m *Measure, opts ProfileOptions) Scorer {
	return eval.NewSTSScorerProfiled(name, m, opts)
}

// Match runs the trajectory-matching experiment of Section VI-B: d1[i]
// and d2[i] must observe the same object; precision and mean rank of the
// true twin are reported.
func Match(d1, d2 Dataset, s Scorer, workers int) (MatchResult, error) {
	return eval.Matching(context.Background(), d1, d2, s, workers)
}

// Synthetic workloads.

// GenerateMall synthesizes the shopping-mall pedestrian workload.
func GenerateMall(n int, seed int64) Dataset {
	cfg := datagen.DefaultMallConfig(n)
	cfg.Seed = seed
	ds, _ := datagen.GenerateMall(cfg)
	return ds
}

// GenerateTaxi synthesizes the city taxi workload.
func GenerateTaxi(n int, seed int64) Dataset {
	cfg := datagen.DefaultTaxiConfig(n)
	cfg.Seed = seed
	ds, _ := datagen.GenerateTaxi(cfg)
	return ds
}

// Dataset IO.

// ReadDataset reads a trajectory dataset from a CSV file (columns
// id,t,x,y).
func ReadDataset(path string) (Dataset, error) { return dataset.ReadFile(path) }

// WriteDataset writes a trajectory dataset to a CSV file.
func WriteDataset(path string, ds Dataset) error { return dataset.WriteFile(path, ds) }

// ReadDatasetJSON reads a trajectory dataset from a JSON file
// ([{id, samples:[[t,x,y]…]}]).
func ReadDatasetJSON(path string) (Dataset, error) { return dataset.ReadJSONFile(path) }

// WriteDatasetJSON writes a trajectory dataset to a JSON file.
func WriteDatasetJSON(path string, ds Dataset) error { return dataset.WriteJSONFile(path, ds) }
