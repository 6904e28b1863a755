package simulator

// Domain is one scheduling domain: a contiguous range of machine-type
// partitions [Lo, Hi) owned by a single per-shard scheduler (see
// internal/shard and DESIGN.md §13). Contiguous ranges make the domain
// layout a pure function of (partition count, shard count) — seed-stable
// and identical on every run and every host.
type Domain struct {
	Lo, Hi int // partition index range, half-open
}

// NumParts returns the number of partitions in the domain.
func (d Domain) NumParts() int { return d.Hi - d.Lo }

// PartitionDomains splits nParts partitions into n contiguous domains,
// remainder spread over the first domains (the same convention NewCluster
// uses for nodes). n is clamped to [1, nParts]: a domain must own at least
// one partition.
func PartitionDomains(nParts, n int) []Domain {
	if n < 1 {
		n = 1
	}
	if n > nParts {
		n = nParts
	}
	doms := make([]Domain, n)
	base, rem := nParts/n, nParts%n
	lo := 0
	for i := range doms {
		size := base
		if i < rem {
			size++
		}
		doms[i] = Domain{Lo: lo, Hi: lo + size}
		lo += size
	}
	return doms
}
