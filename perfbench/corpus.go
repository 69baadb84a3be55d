package main

import (
	"math"
	"math/rand"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/datagen"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// twinSuffix names the mirrored twin of a generated trajectory.
const twinSuffix = "~b"

// twinEvery makes every twinEvery-th generated trajectory mirrored, so one
// ID in nine is a twin.
const twinEvery = 8

// twinNoise is the location noise, in meters, of a twin's copy of its
// original's samples: a tenth of the scorer's sigma at the default 10 km
// area (grid = extent/100 = 100 m).
const twinNoise = 10.0

// corpus is one seeded workload corpus.
type corpus struct {
	trs    []model.Trajectory
	bounds geo.Rect
	// pairs are the (original, twin) ID pairs: truly co-located.
	pairs [][2]string
}

// genCorpus generates total trajectories from datagen.SynthTrajectory
// under seed; one in nine is the mirrored twin "<id>~b" of another, the
// same walk observed by a second noisy sensor with slightly shifted
// timestamps.
func genCorpus(seed int64, total int) corpus {
	cfg := datagen.DefaultSynthConfig(total)
	cfg.Seed = seed
	nTwins := total / (twinEvery + 1)
	nBase := total - nTwins
	c := corpus{trs: make([]model.Trajectory, 0, total)}
	for i := 0; i < nBase; i++ {
		c.trs = append(c.trs, datagen.SynthTrajectory(cfg, i))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7477696e))
	for j := 0; j < nTwins; j++ {
		orig := c.trs[j*twinEvery]
		c.trs = append(c.trs, twinOf(orig, rng))
		c.pairs = append(c.pairs, [2]string{orig.ID, orig.ID + twinSuffix})
	}
	c.bounds, _ = model.Dataset(c.trs).Bounds()
	return c
}

// twinOf copies tr's samples with Gaussian location noise and up to a
// second of timestamp jitter; samples stay in order because generated
// sampling gaps are at least 12 s.
func twinOf(tr model.Trajectory, rng *rand.Rand) model.Trajectory {
	out := model.Trajectory{ID: tr.ID + twinSuffix, Samples: make([]model.Sample, len(tr.Samples))}
	for k, s := range tr.Samples {
		out.Samples[k] = model.Sample{
			Loc: geo.Point{X: s.Loc.X + rng.NormFloat64()*twinNoise, Y: s.Loc.Y + rng.NormFloat64()*twinNoise},
			T:   s.T + rng.Float64()*2 - 1,
		}
	}
	return out
}

// restrict is the corpus cut down to ids: their trajectories, and the
// pairs with both members among them.
func (c corpus) restrict(ids []string) corpus {
	keep := make(map[string]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	out := corpus{bounds: c.bounds}
	for _, tr := range c.trs {
		if keep[tr.ID] {
			out.trs = append(out.trs, tr)
		}
	}
	for _, p := range c.pairs {
		if keep[p[0]] && keep[p[1]] {
			out.pairs = append(out.pairs, p)
		}
	}
	return out
}

// batches splits the corpus into wire batches of at most size
// trajectories.
func (c corpus) batches(size int) [][]api.Trajectory {
	var out [][]api.Trajectory
	for lo := 0; lo < len(c.trs); lo += size {
		hi := min(lo+size, len(c.trs))
		out = append(out, api.FromDataset(model.Dataset(c.trs[lo:hi])))
	}
	return out
}

// lastTime is the latest timestamp in the corpus.
func (c corpus) lastTime() float64 {
	t := math.Inf(-1)
	for _, tr := range c.trs {
		t = math.Max(t, tr.Samples[len(tr.Samples)-1].T)
	}
	return t
}

// walker continues one trajectory's walk past its last sample: 5 m/s
// steps with a drifting heading, as datagen's synthetic walks move.
type walker struct {
	loc     geo.Point
	heading float64
	t       float64
}

func newWalker(tr model.Trajectory, rng *rand.Rand) *walker {
	last := tr.Samples[len(tr.Samples)-1]
	return &walker{loc: last.Loc, heading: rng.Float64() * 2 * math.Pi, t: last.T}
}

// next returns n samples spaced gap seconds apart, the first at least gap
// after the walker's clock and no earlier than from.
func (w *walker) next(n int, gap, from float64, rng *rand.Rand) []model.Sample {
	out := make([]model.Sample, n)
	t := math.Max(w.t+gap, from)
	for k := range out {
		w.heading += (rng.Float64() - 0.5) * math.Pi / 2
		w.loc.X += 5 * gap * math.Cos(w.heading)
		w.loc.Y += 5 * gap * math.Sin(w.heading)
		out[k] = model.Sample{Loc: w.loc, T: t}
		w.t = t
		t += gap
	}
	return out
}

// wire converts samples to the append route's [t, x, y] triples.
func wire(samples []model.Sample) [][3]float64 {
	out := make([][3]float64, len(samples))
	for i, s := range samples {
		out[i] = [3]float64{s.T, s.Loc.X, s.Loc.Y}
	}
	return out
}
