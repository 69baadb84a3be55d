package server_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/server"
)

// TestTopKHostileK sends top-k requests whose k dwarfs any corpus — one
// that would size a terabyte allocation and one at which k+1 overflows —
// to a single engine and to a 4-shard coordinator. Each must answer 200
// with the same matches as k = corpus size.
func TestTopKHostileK(t *testing.T) {
	m, _, ds := mallWorld(t, 8)
	scorer := eval.NewSTSScorer("STS", m)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var svc engine.Service
			var err error
			if shards == 1 {
				svc, err = engine.New(scorer, engine.Options{})
			} else {
				svc, err = engine.NewSharded(scorer, engine.ShardedOptions{
					Shards:       shards,
					ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(svc, server.Options{Logger: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch",
				api.BatchRequest{Trajectories: api.FromDataset(ds)}, nil); code != http.StatusOK {
				t.Fatalf("batch ingest: code %d", code)
			}
			q := ds[0].ID
			for _, self := range []bool{false, true} {
				var want api.TopKResponse
				url := fmt.Sprintf("%s/v1/topk?id=%s&k=%d&self=%v", ts.URL, q, len(ds), self)
				if code := doJSON(t, http.MethodGet, url, nil, &want); code != http.StatusOK {
					t.Fatalf("k=%d: code %d", len(ds), code)
				}
				for _, k := range []int64{1_000_000_000_000, math.MaxInt64} {
					var got api.TopKResponse
					url := fmt.Sprintf("%s/v1/topk?id=%s&k=%d&self=%v", ts.URL, q, k, self)
					if code := doJSON(t, http.MethodGet, url, nil, &got); code != http.StatusOK {
						t.Fatalf("k=%d self=%v: code %d, want 200", k, self, code)
					}
					if len(got.Matches) > len(ds) || len(got.Matches) != len(want.Matches) {
						t.Fatalf("k=%d self=%v: %d matches, want %d of a %d-trajectory corpus",
							k, self, len(got.Matches), len(want.Matches), len(ds))
					}
					for i := range want.Matches {
						if got.Matches[i] != want.Matches[i] {
							t.Fatalf("k=%d self=%v rank %d: %+v, want %+v", k, self, i, got.Matches[i], want.Matches[i])
						}
					}
				}
			}
		})
	}
}
