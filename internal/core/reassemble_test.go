package core

import (
	"strings"
	"testing"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// gatherParts encodes g's reduced adjacencies the way ranks ship them:
// part r holds rank r's lists in slot order, in the segment codec.
func gatherParts(t testing.TB, g *graph.Graph, pt partition.Partitioner, p int) [][]byte {
	t.Helper()
	parts := make([][]byte, p)
	for r := range parts {
		for _, u := range partition.LocalVertices(pt, g.N(), r) {
			var keys []graph.Vertex
			var origs []bool
			g.WalkReduced(u, func(v graph.Vertex, orig bool) bool {
				keys = append(keys, v)
				origs = append(origs, orig)
				return true
			})
			parts[r] = graph.AppendSortedAdjFlagged(parts[r], u, keys, origs)
		}
	}
	return parts
}

// TestReassembleRefusesBadParts: gathered bytes come from peers, so each
// way rank 1's part can be wrong is refused by a named error that names
// the rank, never a panic; the intact parts rebuild the graph with its
// original flags.
func TestReassembleRefusesBadParts(t *testing.T) {
	g := testGraph(t, 4, 60, 200)
	r := rng.New(9)
	for i, e := range g.Edges() {
		if i%4 == 0 {
			g.RemoveEdge(e)
			g.AddModified(e, r)
		}
	}
	pt, err := partition.NewHPD(2)
	if err != nil {
		t.Fatal(err)
	}
	parts := gatherParts(t, g, pt, 2)
	out, err := reassemble(g.N(), pt, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameEdgeFlags(t, "reassembled", edgeFlagMap(g), edgeFlagMap(out))
	if out.M() != g.M() || out.Originals() != g.Originals() {
		t.Fatalf("reassembled %d edges (%d originals), want %d (%d)", out.M(), out.Originals(), g.M(), g.Originals())
	}

	// firstList replaces rank 1's first list (vertex 1 under HP-D) and
	// leaves every other list of the part empty.
	verts := partition.LocalVertices(pt, g.N(), 1)
	firstList := func(list ...byte) []byte {
		return append(list, make([]byte, len(verts)-1)...)
	}
	for _, tc := range []struct {
		name string
		part []byte
		want string
	}{
		{"bytes after the last list", append(append([]byte(nil), parts[1]...), 0), "rank 1 shipped 1 bytes after its last list"},
		{"list cut short", parts[1][:len(parts[1])-1], "truncated adjacency"},
		{"zero gap", firstList(1, 0), "non-ascending adjacency entry"},
		{"neighbour >= n", firstList(1, byte(g.N()-1)<<1), "shipped neighbour 60 of vertex 1, outside the 60 vertices"},
	} {
		_, err := reassemble(g.N(), pt, [][]byte{parts[0], tc.part}, 1)
		if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a refusal naming rank 1 and %q", tc.name, err, tc.want)
		}
	}
}

// FuzzReassemble: whatever bytes arrive as rank 1's part, reassembly
// returns a graph whose every edge lies inside the vertex range, or an
// error naming rank 1.
func FuzzReassemble(f *testing.F) {
	g := testGraph(f, 4, 40, 120)
	pt, err := partition.NewHPD(2)
	if err != nil {
		f.Fatal(err)
	}
	parts := gatherParts(f, g, pt, 2)
	f.Add(parts[1])
	f.Add(parts[1][:len(parts[1])/2])
	f.Add(append(append([]byte(nil), parts[1]...), 0))
	f.Add([]byte{1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := reassemble(g.N(), pt, [][]byte{parts[0], data}, 1)
		if err != nil {
			if !strings.Contains(err.Error(), "rank 1") {
				t.Fatalf("refusal does not name the rank: %v", err)
			}
			return
		}
		for _, e := range out.Edges() {
			if e.U >= e.V || int(e.V) >= g.N() {
				t.Fatalf("reassembled edge %v outside the %d vertices", e, g.N())
			}
		}
	})
}
