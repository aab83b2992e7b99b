package core

import (
	"testing"
)

func TestOnlineMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randWalk(seed+900, 257)
		const m = 12
		on, err := NewOnline(m/3, SAPLA{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c {
			on.Append(v)
		}
		if on.Len() != len(c) {
			t.Fatalf("Len = %d", on.Len())
		}
		gotInit, err := on.Initialization()
		if err != nil {
			t.Fatal(err)
		}
		gotFinal, err := on.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wantInit, _, wantFinal, err := New().ReduceStages(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotInit.Segs) != len(wantInit.Segs) {
			t.Fatalf("seed %d: init %d segments, batch %d", seed, len(gotInit.Segs), len(wantInit.Segs))
		}
		for i := range gotInit.Segs {
			if gotInit.Segs[i] != wantInit.Segs[i] {
				t.Fatalf("seed %d: init segment %d differs: %+v vs %+v",
					seed, i, gotInit.Segs[i], wantInit.Segs[i])
			}
		}
		for i := range gotFinal.Segs {
			if gotFinal.Segs[i] != wantFinal.Segs[i] {
				t.Fatalf("seed %d: final segment %d differs: %+v vs %+v",
					seed, i, gotFinal.Segs[i], wantFinal.Segs[i])
			}
		}
	}
}

func TestOnlineGrowingSnapshots(t *testing.T) {
	c := randWalk(42, 400)
	on, err := NewOnline(4, SAPLA{})
	if err != nil {
		t.Fatal(err)
	}
	var snapshots int
	for i, v := range c {
		on.Append(v)
		if i >= 20 && i%50 == 0 {
			rep, err := on.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if rep.N != i+1 || rep.Segments() != 4 {
				t.Fatalf("snapshot at %d: n=%d segments=%d", i, rep.N, rep.Segments())
			}
			if err := rep.Validate(); err != nil {
				t.Fatal(err)
			}
			snapshots++
		}
	}
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
}

func TestOnlineTooShort(t *testing.T) {
	on, err := NewOnline(4, SAPLA{})
	if err != nil {
		t.Fatal(err)
	}
	on.Append(1)
	on.Append(2)
	if _, err := on.Snapshot(); err == nil {
		t.Fatal("snapshot of a too-short stream accepted")
	}
	if _, err := on.Initialization(); err == nil {
		t.Fatal("initialization of a too-short stream accepted")
	}
}

func TestOnlineValidation(t *testing.T) {
	if _, err := NewOnline(0, SAPLA{}); err == nil {
		t.Fatal("nSeg=0 accepted")
	}
}

func TestOnlineExactBounds(t *testing.T) {
	c := randWalk(11, 200)
	on, err := NewOnline(4, SAPLA{ExactBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c {
		on.Append(v)
	}
	rep, err := on.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments() != 4 {
		t.Fatalf("segments = %d", rep.Segments())
	}
}

// TestOnlineSnapshotAllocs holds Snapshot to the Reducer's reuse: once its
// buffers have grown, a snapshot allocates only the returned representation.
func TestOnlineSnapshotAllocs(t *testing.T) {
	on, err := NewOnline(4, SAPLA{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range randWalk(12, 1024) {
		on.Append(v)
	}
	// AllocsPerRun's own warm-up run grows the buffers.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := on.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Snapshot allocates %v times, want ≤ 1", allocs)
	}
}
