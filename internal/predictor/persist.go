package predictor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"threesigma/internal/binenc"
	"threesigma/internal/histogram"
	"threesigma/internal/stats"
)

// The paper's 3σPredict keeps its sketches in a "runtime history database"
// that survives across scheduler restarts (§6.5 measures its lookup
// latency). This file provides the equivalent persistence: Save writes every
// feature-value group's constant-size state as one binary stream,
//
//	magic "3SPR", version byte 2
//	uvarint feature count, then per feature in features order:
//	  uvarint group count, then per group in ascending key order:
//	    key        uvarint length, bytes
//	    histogram  uvarint bin count, per bin centroid and count; min, max
//	    count      uvarint
//	    sum, rolling
//	    recent     uvarint length, the ring's values in stored order;
//	               uvarint rpos
//	    NMAE × 4   sum of absolute errors, sum of actuals, uvarint n
//
// where every float is its IEEE-754 bits, eight bytes little-endian, so
// every value round-trips exactly. A histogram's bin budget is not stored
// (every group's is maxBins) and neither is its total, which FromState sums
// from the bins. Load reads that stream and nothing else: a build reads
// the format it writes, and a stream of any other magic or version is
// refused.

// persistMagic opens a binary stream; persistVersion follows it.
const (
	persistMagic   = "3SPR"
	persistVersion = 2
)

// minGroupBytes is the smallest encoding of a group: an empty key and
// histogram, an empty ring, and every uvarint one byte long.
const minGroupBytes = 1 + 1 + 2*8 + 1 + 2*8 + 2 + numEstimators*(2*8+1)

// groupState is one group's saved state, as appendGroup writes it and
// loadBinary hands it to restoreGroup.
type groupState struct {
	Hist    histogram.State
	Count   int
	Sum     float64
	Rolling float64
	Recent  []float64
	RPos    int
	NMAE    [numEstimators]stats.NMAEState
}

// Save serializes the predictor's history sketches to w as the binary
// stream above, one run of groups per feature in the order of features.
func (p *Predictor) Save(w io.Writer) error {
	if _, err := w.Write(p.AppendSave(nil)); err != nil {
		return fmt.Errorf("predictor: save: %w", err)
	}
	return nil
}

// AppendSave appends the stream Save writes to buf, for a caller that
// embeds it in a buffer of its own.
func (p *Predictor) AppendSave(buf []byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appendState(buf)
}

// appendState appends the binary stream to buf. The caller holds p.mu.
func (p *Predictor) appendState(buf []byte) []byte {
	buf = append(buf, persistMagic...)
	buf = append(buf, persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(p.groups)))
	for _, m := range p.groups {
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for _, val := range sortedKeys(m) {
			gs := m[val].state()
			buf = appendGroup(buf, val, &gs)
		}
	}
	return buf
}

// state is the group's saved state. Its ring slice aliases the group's.
func (g *group) state() groupState {
	gs := groupState{
		Hist:    g.hist.Snapshot(),
		Count:   g.count,
		Sum:     g.sum,
		Rolling: g.rolling,
		Recent:  g.recentValues(),
		RPos:    g.rPos,
	}
	for i := range g.nmae {
		gs.NMAE[i] = g.nmae[i].State()
	}
	return gs
}

// appendGroup appends the encoding of the group saved as gs under key.
func appendGroup(buf []byte, key string, gs *groupState) []byte {
	buf = binenc.AppendString(buf, key)
	buf = binary.AppendUvarint(buf, uint64(len(gs.Hist.Bins)))
	for _, b := range gs.Hist.Bins {
		buf = binenc.AppendFloat(binenc.AppendFloat(buf, b.Value), b.Count)
	}
	buf = binenc.AppendFloat(binenc.AppendFloat(buf, gs.Hist.Min), gs.Hist.Max)
	buf = binary.AppendUvarint(buf, uint64(gs.Count))
	buf = binenc.AppendFloat(binenc.AppendFloat(buf, gs.Sum), gs.Rolling)
	buf = binary.AppendUvarint(buf, uint64(len(gs.Recent)))
	for _, v := range gs.Recent {
		buf = binenc.AppendFloat(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(gs.RPos))
	for _, s := range gs.NMAE {
		buf = binenc.AppendFloat(binenc.AppendFloat(buf, s.SumAbsErr), s.SumActual)
		buf = binary.AppendUvarint(buf, uint64(s.N))
	}
	return buf
}

// Load replaces the predictor's history with a previously saved state,
// all or nothing: a stream that fails to load leaves the predictor as it
// was. The stream must hold one run of groups per feature.
func (p *Predictor) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("predictor: load: %w", err)
	}
	return p.LoadBytes(data)
}

// LoadBytes is Load over a stream already in memory. Nothing the restored
// predictor holds aliases data.
func (p *Predictor) LoadBytes(data []byte) error {
	if !bytes.HasPrefix(data, []byte(persistMagic)) {
		return fmt.Errorf("predictor: load: stream does not begin with %q", persistMagic)
	}
	groups, err := loadBinary(data[len(persistMagic):])
	if err != nil {
		return fmt.Errorf("predictor: load: %w", err)
	}
	p.mu.Lock()
	p.groups = groups
	p.mu.Unlock()
	return nil
}

// loadBinary restores the groups of a binary stream, read past its magic.
// Every length is checked against the bytes that remain before anything is
// allocated for it, and the keys of a feature must ascend strictly, so a
// predictor has exactly one stream.
func loadBinary(data []byte) ([]map[string]*group, error) {
	if len(data) == 0 {
		return nil, errors.New("stream ends after its magic")
	}
	if data[0] != persistVersion {
		return nil, fmt.Errorf("unsupported version %d", data[0])
	}
	r := binenc.NewReader(data[1:])
	if nf := r.Int(); r.Err() == nil && nf != len(features) {
		return nil, fmt.Errorf("%d feature groups, predictor has %d features", nf, len(features))
	}
	groups := make([]map[string]*group, len(features))
	var gs groupState // its slices are scratch, reused group to group
	for fi := range groups {
		n := r.Length(minGroupBytes)
		groups[fi] = make(map[string]*group, n)
		prev := ""
		for k := 0; k < n && r.Err() == nil; k++ {
			key := string(r.Prefixed())
			gs.Hist.Bins = gs.Hist.Bins[:0]
			for b := r.Length(16); b > 0 && r.Err() == nil; b-- {
				gs.Hist.Bins = append(gs.Hist.Bins, histogram.Bin{Value: r.Float(), Count: r.Float()})
			}
			gs.Hist.Min, gs.Hist.Max = r.Float(), r.Float()
			gs.Count = r.Int()
			gs.Sum, gs.Rolling = r.Float(), r.Float()
			gs.Recent = gs.Recent[:0]
			for b := r.Length(8); b > 0 && r.Err() == nil; b-- {
				gs.Recent = append(gs.Recent, r.Float())
			}
			gs.RPos = r.Int()
			for i := range gs.NMAE {
				gs.NMAE[i] = stats.NMAEState{SumAbsErr: r.Float(), SumActual: r.Float(), N: r.Int()}
			}
			if r.Err() != nil {
				break
			}
			if k > 0 && key <= prev {
				return nil, fmt.Errorf("feature %d: group %q follows %q", fi, key, prev)
			}
			g, err := restoreGroup(&gs)
			if err != nil {
				return nil, fmt.Errorf("feature %d, group %q: %w", fi, key, err)
			}
			groups[fi][key] = g
			prev = key
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("%d bytes after the last group", r.Len())
	}
	return groups, nil
}

// restoreGroup builds a group from its saved state. The histogram goes
// through FromState's validation and repair, with the predictor's bin
// budget. What no repair makes safe is an error: a recent value that is not
// finite (the sorted companion could not find it to evict it), and a ring
// Observe could never have left — longer than recentK, a position past its
// end, or a position other than 0 before the ring is full (it stays 0 until
// then). Counts are uvarints, so none is negative.
func restoreGroup(gs *groupState) (*group, error) {
	if len(gs.Recent) > recentK || gs.RPos >= recentK || (gs.RPos != 0 && len(gs.Recent) < recentK) {
		return nil, fmt.Errorf("ring of %d recent runtimes at position %d (ring size %d)", len(gs.Recent), gs.RPos, recentK)
	}
	for _, v := range gs.Recent {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("recent runtime %v is not finite", v)
		}
	}
	gs.Hist.MaxBins = maxBins
	h, err := histogram.FromState(gs.Hist)
	if err != nil {
		return nil, err
	}
	g := &group{hist: h, count: gs.Count, sum: gs.Sum, rolling: gs.Rolling}
	g.rLen = copy(g.recent[:], gs.Recent)
	g.rPos = gs.RPos
	g.resort()
	for i := range g.nmae {
		g.nmae[i] = stats.NMAEFromState(gs.NMAE[i])
	}
	return g, nil
}

// sortedKeys returns m's keys sorted — the sort-keys idiom the detrange
// lint rule asks for, so persistence never observes map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
