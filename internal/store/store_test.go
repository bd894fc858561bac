package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// testVerts gives nv owners spaced apart so gaps vary in byte width.
func testVerts(nv int) []graph.Vertex {
	verts := make([]graph.Vertex, nv)
	for i := range verts {
		verts[i] = graph.Vertex(i * 7)
	}
	return verts
}

func newTestTiered(t *testing.T, verts []graph.Vertex, budget int64) *Tiered {
	t.Helper()
	r := rng.New(99)
	ts, err := NewTiered(t.TempDir(), verts, budget, r.Uint32)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// slotState collects slot li's (key, original) pairs via Walk.
func slotState(s Store, li int) ([]graph.Vertex, []bool) {
	var keys []graph.Vertex
	var origs []bool
	s.Walk(li, func(v graph.Vertex, orig bool) bool {
		keys = append(keys, v)
		origs = append(origs, orig)
		return true
	})
	return keys, origs
}

func requireSlotsEqual(t *testing.T, want, got Store, nv int, tag string) {
	t.Helper()
	for li := 0; li < nv; li++ {
		wk, wo := slotState(want, li)
		gk, go_ := slotState(got, li)
		if len(wk) != len(gk) {
			t.Fatalf("%s: slot %d: len %d vs %d", tag, li, len(wk), len(gk))
		}
		for i := range wk {
			if wk[i] != gk[i] || wo[i] != go_[i] {
				t.Fatalf("%s: slot %d entry %d: (%d,%v) vs (%d,%v)", tag, li, i, wk[i], wo[i], gk[i], go_[i])
			}
		}
		if want.Len(li) != got.Len(li) {
			t.Fatalf("%s: slot %d: Len %d vs %d", tag, li, want.Len(li), got.Len(li))
		}
		if want.Originals(li) != got.Originals(li) {
			t.Fatalf("%s: slot %d: Originals %d vs %d", tag, li, want.Originals(li), got.Originals(li))
		}
	}
}

// TestMemTieredEquivalence drives both implementations through the same
// randomized op sequence — inserts, deletes, Kth takes, drains with
// reinserts, step boundaries with a tiny budget so compactions fire
// constantly — and demands identical observable state throughout.
func TestMemTieredEquivalence(t *testing.T) {
	const nv = 24
	verts := testVerts(nv)
	mem := NewMem(verts)
	tr := newTestTiered(t, verts, 8) // compact at nearly every step

	r := rng.New(42)
	pr := rng.New(7)
	for li := 0; li < nv; li++ {
		deg := int(r.Uint32() % 12)
		for j := 0; j < deg; j++ {
			v := verts[li] + 1 + graph.Vertex(r.Uint32()%500)
			p := pr.Uint32()
			if mem.Insert(li, v, true, p) != tr.Insert(li, v, true, p) {
				t.Fatalf("load: Insert disagreement at slot %d v %d", li, v)
			}
		}
	}
	if err := mem.EndLoad(); err != nil {
		t.Fatalf("mem EndLoad: %v", err)
	}
	if err := tr.EndLoad(); err != nil {
		t.Fatalf("tiered EndLoad: %v", err)
	}
	if tr.Stats().BaseBytes == 0 {
		t.Fatal("tiered store has no base segment after EndLoad")
	}
	requireSlotsEqual(t, mem, tr, nv, "after load")
	if st := mem.Stats(); st != (Stats{}) {
		t.Fatalf("store without a directory reports spill counters %+v", st)
	}

	for step := 0; step < 60; step++ {
		for op := 0; op < 20; op++ {
			li := int(r.Uint32()) % nv
			switch r.Uint32() % 5 {
			case 0: // insert
				v := verts[li] + 1 + graph.Vertex(r.Uint32()%500)
				p := pr.Uint32()
				if mem.Insert(li, v, false, p) != tr.Insert(li, v, false, p) {
					t.Fatalf("step %d: Insert disagreement at slot %d v %d", step, li, v)
				}
			case 1: // delete
				v := verts[li] + 1 + graph.Vertex(r.Uint32()%500)
				mf, mo := mem.Delete(li, v)
				tf, to := tr.Delete(li, v)
				if mf != tf || mo != to {
					t.Fatalf("step %d: Delete disagreement at slot %d v %d: (%v,%v) vs (%v,%v)", step, li, v, mf, mo, tf, to)
				}
			case 2: // kth, taken out on odd steps
				n := mem.Len(li)
				if n == 0 {
					continue
				}
				k := int(r.Uint32()) % n
				mkth, tkth := mem.Kth, tr.Kth
				if step%2 == 1 {
					mkth, tkth = mem.TakeKth, tr.TakeKth
				}
				mv, mo := mkth(li, k)
				tv, to := tkth(li, k)
				if mv != tv || mo != to {
					t.Fatalf("step %d: Kth(%d,%d) disagreement: (%d,%v) vs (%d,%v)", step, li, k, mv, mo, tv, to)
				}
			case 3: // point lookups
				v := verts[li] + 1 + graph.Vertex(r.Uint32()%500)
				if mem.Contains(li, v) != tr.Contains(li, v) {
					t.Fatalf("step %d: Contains disagreement at slot %d v %d", step, li, v)
				}
				if mem.Original(li, v) != tr.Original(li, v) {
					t.Fatalf("step %d: Original disagreement at slot %d v %d", step, li, v)
				}
			case 4: // drain and reinsert everything (curveball's shape)
				var mk, tk []graph.Vertex
				var mo, to []bool
				mem.Drain(li, func(v graph.Vertex, orig bool) { mk = append(mk, v); mo = append(mo, orig) })
				tr.Drain(li, func(v graph.Vertex, orig bool) { tk = append(tk, v); to = append(to, orig) })
				if len(mk) != len(tk) {
					t.Fatalf("step %d: Drain slot %d: %d vs %d entries", step, li, len(mk), len(tk))
				}
				for i := range mk {
					if mk[i] != tk[i] || mo[i] != to[i] {
						t.Fatalf("step %d: Drain slot %d entry %d differs", step, li, i)
					}
					p := pr.Uint32()
					mem.Insert(li, mk[i], mo[i], p)
					tr.Insert(li, tk[i], to[i], p)
				}
			}
		}
		if err := mem.EndStep(); err != nil {
			t.Fatalf("mem EndStep: %v", err)
		}
		if err := tr.EndStep(); err != nil {
			t.Fatalf("tiered EndStep: %v", err)
		}
		requireSlotsEqual(t, mem, tr, nv, "after step")
		overlay := int64(0)
		for li := range verts {
			if tr.inOverlay(li) {
				overlay += int64(tr.overlay[li].Len())
			}
		}
		if tr.entries != overlay {
			t.Fatalf("step %d: tiered counts %d overlay entries, holds %d", step, tr.entries, overlay)
		}
	}
	st := tr.Stats()
	if st.Compactions == 0 {
		t.Fatal("budget 8 never triggered a compaction")
	}
	if st.OverlayHWM == 0 {
		t.Fatal("overlay high-water mark never moved")
	}
	// SaveSegment must publish the same image from either store, byte for
	// byte (checkpoints depend on it), including unpromoted slots' verbatim
	// base copies — and the image must verify cold and decode back to the
	// stores' state.
	dir := t.TempDir()
	memPath, trPath := filepath.Join(dir, "mem.seg"), filepath.Join(dir, "tiered.seg")
	if err := os.WriteFile(trPath, []byte("stale"), 0o666); err != nil {
		t.Fatal(err)
	}
	ms, mc, err := mem.SaveSegment(memPath)
	if err != nil {
		t.Fatalf("mem SaveSegment: %v", err)
	}
	ts, tc, err := tr.SaveSegment(trPath)
	if err != nil {
		t.Fatalf("tiered SaveSegment: %v", err)
	}
	mb, _ := os.ReadFile(memPath)
	tb, _ := os.ReadFile(trPath)
	if ms != ts || mc != tc || int64(len(mb)) != ms || !bytes.Equal(mb, tb) {
		t.Fatalf("SaveSegment images differ: mem (%d B, crc %08x), tiered (%d B, crc %08x)", ms, mc, ts, tc)
	}
	seg, err := OpenSegment(trPath)
	if err != nil {
		t.Fatalf("saved segment does not verify: %v", err)
	}
	defer seg.Close()
	if seg.NV() != nv || seg.CRC() != tc || seg.Size() != ts {
		t.Fatalf("saved segment reports (%d slots, crc %08x, %d B), want (%d, %08x, %d)", seg.NV(), seg.CRC(), seg.Size(), nv, tc, ts)
	}
	for li := 0; li < nv; li++ {
		keys, origs, _, err := graph.DecodeAdjSet(seg.List(li), verts[li], nil, nil)
		if err != nil {
			t.Fatalf("saved slot %d: %v", li, err)
		}
		wk, wo := slotState(mem, li)
		if !slices.Equal(keys, wk) || !slices.Equal(origs, wo) {
			t.Fatalf("saved slot %d decodes to %v/%v, store holds %v/%v", li, keys, origs, wk, wo)
		}
	}
	requireSlotsEqual(t, mem, tr, nv, "after SaveSegment")
}

// TestTieredStreamingLoad checks that an ascending BuildSorted load —
// with gaps, like a distributed-generation scan that skips empty slots —
// streams straight to a base segment without touching the overlay.
func TestTieredStreamingLoad(t *testing.T) {
	const nv = 10
	verts := testVerts(nv)
	mem := NewMem(verts)
	tr := newTestTiered(t, verts, 0)

	pr := rng.New(3)
	for _, li := range []int{1, 2, 5, 9} { // slots 0,3,4,6,7,8 stay empty
		keys := []graph.Vertex{verts[li] + 1, verts[li] + 4, verts[li] + 90}
		prios := []uint32{pr.Uint32(), pr.Uint32(), pr.Uint32()}
		origs := []bool{true, false, true}
		mem.BuildSortedFlagged(li, keys, prios, origs)
		tr.BuildSortedFlagged(li, keys, prios, origs)
	}
	if err := tr.EndLoad(); err != nil {
		t.Fatalf("EndLoad: %v", err)
	}
	st := tr.Stats()
	if st.BaseBytes == 0 {
		t.Fatal("no base segment after streamed load")
	}
	if st.OverlayEntries != 0 {
		t.Fatalf("streamed load left %d overlay entries", st.OverlayEntries)
	}
	if st.OverlayHWM != 0 {
		t.Fatalf("streamed load moved the overlay high-water mark to %d", st.OverlayHWM)
	}
	requireSlotsEqual(t, mem, tr, nv, "streamed load")
}

// TestTieredStreamsRewriteAfterFullDrain is curveball's round shape: the
// whole store is drained — some slots from the base, one from a promoted
// overlay treap — and rebuilt by ascending-slot builds. The rebuild must
// stream into the next base segment (no overlay entries, one compaction,
// the old segment file gone), and a build into a store that still holds
// entries must keep taking the overlay path.
func TestTieredStreamsRewriteAfterFullDrain(t *testing.T) {
	const nv = 10
	verts := testVerts(nv)
	mem := NewMem(verts)
	tr := newTestTiered(t, verts, 0)
	pr := rng.New(3)
	build := func(li int, gaps ...graph.Vertex) {
		var keys []graph.Vertex
		var prios []uint32
		var origs []bool
		for i, g := range gaps {
			keys = append(keys, verts[li]+g)
			prios = append(prios, pr.Uint32())
			origs = append(origs, i%2 == 0)
		}
		mem.BuildSortedFlagged(li, keys, prios, origs)
		tr.BuildSortedFlagged(li, keys, prios, origs)
	}
	drain := func(li int) {
		mem.Drain(li, func(graph.Vertex, bool) {})
		tr.Drain(li, func(graph.Vertex, bool) {})
	}
	for _, li := range []int{1, 2, 5, 9} {
		build(li, 1, 4, 90)
	}
	if err := tr.EndLoad(); err != nil {
		t.Fatalf("EndLoad: %v", err)
	}
	firstBase := tr.seg.Path()

	// A partial drain leaves live entries: builds go to the overlay.
	mem.Insert(2, verts[2]+7, false, 1)
	tr.Insert(2, verts[2]+7, false, 1) // promotes slot 2
	drain(1)
	build(1, 2, 3)
	if st := tr.Stats(); st.OverlayEntries != 6 || st.Compactions != 0 {
		t.Fatalf("build into a live store: %d overlay entries, %d compactions, want 6 and 0", st.OverlayEntries, st.Compactions)
	}
	requireSlotsEqual(t, mem, tr, nv, "overlay build")

	hwm := tr.Stats().OverlayHWM
	for li := 0; li < nv; li++ {
		drain(li)
	}
	for _, li := range []int{0, 2, 3, 9} {
		build(li, 5, 6, 200, 201)
	}
	if err := tr.EndStep(); err != nil {
		t.Fatalf("EndStep: %v", err)
	}
	st := tr.Stats()
	if st.OverlayEntries != 0 || st.OverlayHWM != hwm {
		t.Fatalf("full rewrite touched the overlay: %d entries, high-water mark %d -> %d", st.OverlayEntries, hwm, st.OverlayHWM)
	}
	if st.Compactions != 1 {
		t.Fatalf("full rewrite counted %d compactions, want 1", st.Compactions)
	}
	if tr.seg.Path() == firstBase {
		t.Fatal("full rewrite kept the old base segment")
	}
	if _, err := os.Stat(firstBase); !os.IsNotExist(err) {
		t.Fatalf("old base segment still on disk: %v", err)
	}
	requireSlotsEqual(t, mem, tr, nv, "streamed rewrite")

	// The rewritten base serves point mutations and compacts like any other.
	mem.Insert(3, verts[3]+9, true, 2)
	tr.Insert(3, verts[3]+9, true, 2)
	if err := tr.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	requireSlotsEqual(t, mem, tr, nv, "compaction after rewrite")
}

// TestSegmentCorruptionDetected flips one payload byte and demands the
// cold open fail its CRC.
func TestSegmentCorruptionDetected(t *testing.T) {
	verts := testVerts(4)
	tr := newTestTiered(t, verts, 0)
	for li := range verts {
		tr.Insert(li, verts[li]+2, true, uint32(li+1))
	}
	if err := tr.EndLoad(); err != nil {
		t.Fatalf("EndLoad: %v", err)
	}
	path := tr.seg.Path()
	// Copy aside, then corrupt the copy (the original stays mapped).
	dir := t.TempDir()
	dst := filepath.Join(dir, "seg")
	if err := copyFile(path, dst); err != nil {
		t.Fatalf("copy: %v", err)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen] ^= 0x40
	if err := os.WriteFile(dst, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(dst); err == nil {
		t.Fatal("OpenSegment accepted a corrupted segment")
	}
}

// TestTieredAutoBudget pins the one budget rule: with budget 0 a step
// boundary leaves an overlay of max(loaded/4, 4096) entries alone and
// compacts one entry past it.
func TestTieredAutoBudget(t *testing.T) {
	for _, tc := range []struct {
		name           string
		slots, perSlot int
		budget         int64
	}{
		{"quarter", 40, 1000, 10000}, // 40 000 loaded
		{"floor", 4, 25, 4096},       // 100 loaded
	} {
		t.Run(tc.name, func(t *testing.T) {
			verts := testVerts(tc.slots)
			tr := newTestTiered(t, verts, 0)
			for li := range verts {
				keys := make([]graph.Vertex, tc.perSlot)
				for j := range keys {
					keys[j] = verts[li] + 1 + graph.Vertex(j)
				}
				tr.BuildSorted(li, keys, nil, true)
			}
			if err := tr.EndLoad(); err != nil {
				t.Fatalf("EndLoad: %v", err)
			}
			// Promote whole slots, then top slot 0 up with fresh entries
			// until the overlay holds exactly the budget.
			overlay := int64(0)
			for li := 0; li < tc.slots && overlay+int64(tc.perSlot) <= tc.budget; li++ {
				tr.Kth(li, 0)
				overlay += int64(tc.perSlot)
			}
			for v := verts[0] + 1 + graph.Vertex(tc.perSlot); overlay < tc.budget; v++ {
				tr.Insert(0, v, false, 0)
				overlay++
			}
			endStep := func(wantEntries, wantCompactions int64) {
				t.Helper()
				if err := tr.EndStep(); err != nil {
					t.Fatalf("EndStep: %v", err)
				}
				if st := tr.Stats(); st.OverlayEntries != wantEntries || st.Compactions != wantCompactions {
					t.Fatalf("after EndStep: %d overlay entries, %d compactions; want %d and %d",
						st.OverlayEntries, st.Compactions, wantEntries, wantCompactions)
				}
			}
			endStep(tc.budget, 0)
			tr.Insert(0, verts[0]+100000, false, 0)
			endStep(0, 1)
		})
	}
}

// FuzzParseSegment feeds parseSegment arbitrary bytes twice: as they are,
// and with the last four bytes replaced by the CRC32C of the rest, so the
// frame arithmetic behind the checksum is reached too. The result is a
// Segment whose every slot can be listed, or a named error — never a
// panic or an out-of-range index.
func FuzzParseSegment(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.seg")
	w, err := NewSegmentWriter(path, 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, keys := range [][]graph.Vertex{{5, 9, 300}, nil, {70000}} {
		if err := w.Append(graph.AppendSortedAdj(nil, 2, keys, true)); err != nil {
			f.Fatal(err)
		}
	}
	seg, err := w.Finalize()
	if err != nil {
		f.Fatal(err)
	}
	seg.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add(valid[:segHeaderLen])
	f.Add([]byte{})
	hugeNV := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeNV[8:], 1<<63)
	f.Add(hugeNV)
	badOffsets := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(badOffsets[len(badOffsets)-4-3*8:], 1<<40)
	f.Add(badOffsets)

	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := append([]byte(nil), data...)
		if n := len(resealed); n >= 4 {
			binary.LittleEndian.PutUint32(resealed[n-4:], crc32.Checksum(resealed[:n-4], castagnoli))
		}
		for _, d := range [][]byte{data, resealed} {
			seg, err := parseSegment("fuzz", d, true)
			if err != nil {
				continue
			}
			for li := 0; li < seg.NV(); li++ {
				_ = seg.List(li)
			}
		}
	})
}
