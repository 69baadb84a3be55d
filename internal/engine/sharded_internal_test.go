package engine

import (
	"math/rand"
	"testing"
)

// TestMatchHeapMergeOrderInvariance pins the coordinator's merge
// determinism at the mechanism: the same multiset of matches, offered in
// any arrival order (waves complete in nondeterministic interleavings),
// must produce the same sorted top-k under worseMergedMatch — descending
// score, float-equal ties ascending by trajectory ID.
func TestMatchHeapMergeOrderInvariance(t *testing.T) {
	matches := []Match{
		{ID: "a", Slot: 9, Score: 0.9},
		{ID: "b", Slot: 3, Score: 0.5},
		{ID: "c", Slot: 7, Score: 0.5},
		{ID: "d", Slot: 1, Score: 0.5},
		{ID: "e", Slot: 5, Score: 0.5},
		{ID: "f", Slot: 0, Score: 0.3},
		{ID: "g", Slot: 2, Score: 0.1},
		{ID: "h", Slot: 8, Score: 0.1},
		{ID: "i", Slot: 4, Score: 0},
		{ID: "j", Slot: 6, Score: 0},
	}
	for _, k := range []int{1, 4, 5, 10, 20} {
		var want []Match
		for seed := int64(0); seed < 8; seed++ {
			perm := append([]Match(nil), matches...)
			rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) {
				perm[i], perm[j] = perm[j], perm[i]
			})
			h := newMatchHeap(k, len(perm), worseMergedMatch)
			for _, m := range perm {
				h.offer(m)
			}
			got := h.sorted()
			for i := 1; i < len(got); i++ {
				if got[i].Score > got[i-1].Score ||
					(got[i].Score == got[i-1].Score && got[i].ID <= got[i-1].ID) {
					t.Fatalf("k=%d seed=%d: order violated at %d: %v", k, seed, i, got)
				}
			}
			if want == nil {
				want = got
				wantLen := k
				if wantLen > len(matches) {
					wantLen = len(matches)
				}
				if len(want) != wantLen {
					t.Fatalf("k=%d: %d results, want %d", k, len(want), wantLen)
				}
				continue
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("k=%d seed=%d: result %d = %+v, want %+v (arrival-order dependent)", k, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWorseMergedMatch pins the comparator itself.
func TestWorseMergedMatch(t *testing.T) {
	cases := []struct {
		a, b Match
		want bool
	}{
		{Match{ID: "x", Score: 0.1}, Match{ID: "y", Score: 0.2}, true},
		{Match{ID: "x", Score: 0.2}, Match{ID: "y", Score: 0.1}, false},
		{Match{ID: "b", Score: 0.5}, Match{ID: "a", Score: 0.5}, true},
		{Match{ID: "a", Score: 0.5}, Match{ID: "b", Score: 0.5}, false},
	}
	for _, c := range cases {
		if got := worseMergedMatch(c.a, c.b); got != c.want {
			t.Errorf("worseMergedMatch(%+v, %+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestShardIndexStability pins the routing hash: FNV-1a over the ID bytes
// alone, so the same ID always lands on the same shard for a given shard
// count, and routing is independent of sample count or generation.
func TestShardIndexStability(t *testing.T) {
	s := &Sharded{shards: make([]*Engine, 8)}
	ids := []string{"", "a", "ped-0001", "taxi/42", "近接"}
	for _, id := range ids {
		first := s.shardIndex(id)
		if first < 0 || first >= 8 {
			t.Fatalf("shardIndex(%q) = %d out of range", id, first)
		}
		for i := 0; i < 3; i++ {
			if got := s.shardIndex(id); got != first {
				t.Fatalf("shardIndex(%q) unstable: %d then %d", id, first, got)
			}
		}
	}
	// Known FNV-1a vector: "a" hashes to 0xaf63dc4c8601ec8c.
	if got := s.shardIndex("a"); got != int(uint64(0xaf63dc4c8601ec8c)%8) {
		t.Fatalf("shardIndex(\"a\") = %d, want FNV-1a residue %d", got, uint64(0xaf63dc4c8601ec8c)%8)
	}
}
