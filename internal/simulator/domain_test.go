package simulator

import "testing"

func TestPartitionDomains(t *testing.T) {
	cases := []struct {
		nParts, n int
		want      []Domain
	}{
		{8, 4, []Domain{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{8, 3, []Domain{{0, 3}, {3, 6}, {6, 8}}}, // remainder to the first domains
		{4, 1, []Domain{{0, 4}}},
		{4, 4, []Domain{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{4, 9, []Domain{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}, // clamped to nParts
		{4, 0, []Domain{{0, 4}}},                         // clamped to 1
	}
	for _, c := range cases {
		got := PartitionDomains(c.nParts, c.n)
		if len(got) != len(c.want) {
			t.Errorf("PartitionDomains(%d,%d) = %v, want %v", c.nParts, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PartitionDomains(%d,%d)[%d] = %v, want %v", c.nParts, c.n, i, got[i], c.want[i])
			}
		}
	}
	// Domains must tile the partition range exactly.
	for _, n := range []int{1, 2, 3, 5, 7, 12} {
		doms := PartitionDomains(12, n)
		lo := 0
		for _, d := range doms {
			if d.Lo != lo || d.Hi <= d.Lo {
				t.Fatalf("PartitionDomains(12,%d): bad tiling %v", n, doms)
			}
			lo = d.Hi
		}
		if lo != 12 {
			t.Fatalf("PartitionDomains(12,%d): covers [0,%d), want [0,12)", n, lo)
		}
	}
}
