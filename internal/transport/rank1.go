package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Rank1Section is a gradient section sent as the factors of its outer
// product: the dense section is X⊗D, len(X)·len(D) floats, row i being
// X[i]·D. A dense layer's weight gradient on a one-row token is one —
// its input row and its output gradient — so a report carries in+out
// floats for in·out. Sections travel only in exact frames, in the
// rank-1 frame form (version 3, codec.go); see Message.Rank1.
type Rank1Section struct{ X, D []float32 }

// Len is the dense length the section stands for.
func (s *Rank1Section) Len() int { return len(s.X) * len(s.D) }

// Rank1 returns the report's rank-1 sections, aligned with Grads: where
// section i travels as factors, Grads[i] is nil and Rank1()[i] holds
// them, and elsewhere Rank1()[i] is zero and Grads[i] is the section.
// It is nil when no section is rank-1. Decoded factors are views of the
// received frame or copies in its arena, valid until Release.
func (m *Message) Rank1() []Rank1Section {
	if m.rank1 == nil {
		return nil
	}
	return *m.rank1
}

// SetRank1 makes the sections of s with a non-empty X rank-1: s is
// aligned with Grads, whose entries for those sections must be empty.
// Without such a section it clears the rank-1 sections, and the frame
// is the plain exact one, byte for byte. Rank-1 sections need the exact
// codec; encoding refuses them under any other.
func (m *Message) SetRank1(s []Rank1Section) {
	m.rank1 = nil
	if slices.ContainsFunc(s, func(f Rank1Section) bool { return len(f.X) > 0 }) {
		m.rank1 = &s
	}
}

// isRank1 reports whether gradient section i travels as factors.
func (m *Message) isRank1(i int) bool { return m.rank1 != nil && len((*m.rank1)[i].X) > 0 }

// maxSectionFloats bounds the dense length a rank-1 section, and all the
// sections of a frame, may stand for: what one frame could carry dense.
const maxSectionFloats = MaxFrameBytes / 4

// checkRank1 holds m's rank-1 sections to what the decoder accepts.
func (m *Message) checkRank1() error {
	if m.gradCodec != CompressExact {
		return &CodecError{fmt.Errorf("rank-1 sections under gradient codec %v, not exact", m.gradCodec)}
	}
	rank1 := *m.rank1
	if len(rank1) != len(m.Grads) {
		return &CodecError{fmt.Errorf("%d rank-1 entries for %d gradient sections", len(rank1), len(m.Grads))}
	}
	total := 0
	for i, f := range rank1 {
		switch {
		case len(f.X) == 0 && len(f.D) > 0:
			return &CodecError{fmt.Errorf("rank-1 section %d has δ but no x", i)}
		case len(f.X) == 0:
			total += len(m.Grads[i])
			continue
		case len(m.Grads[i]) > 0:
			return &CodecError{fmt.Errorf("section %d is both dense and rank-1", i)}
		case len(f.D) == 0:
			return &CodecError{fmt.Errorf("rank-1 section %d has an empty δ", i)}
		case len(f.X) > maxSectionFloats/len(f.D):
			return &CodecError{fmt.Errorf("rank-1 section %d stands for more than %d floats", i, maxSectionFloats)}
		}
		total += f.Len()
	}
	if total > maxSectionFloats {
		return &CodecError{fmt.Errorf("gradient sections stand for %d floats (limit %d)", total, maxSectionFloats)}
	}
	return nil
}

// appendRank1Slices appends the grads group of a rank-1 frame: each
// section as its dense length and a float group of its n floats, or of
// x and δ, cut with a cut list from viewFloats on as appendSlices cuts.
func appendRank1Slices(dst []byte, ss [][]float32, r1 []Rank1Section, cuts *[]floatCut) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for i, s := range ss {
		if f := r1[i]; len(f.X) > 0 {
			dst = binary.AppendUvarint(dst, uint64(f.Len()))
			dst = appendSlices(dst, [][]float32{f.X, f.D}, cuts)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = appendSlices(dst, [][]float32{s}, cuts)
		}
	}
	return dst
}

// copiedRank1Floats is copiedFloats for a rank-1 frame's grads group:
// how many of its floats rank1SlicesInto will copy into the arena.
func (r *PayloadReader) copiedRank1Floats() int {
	n := 0
	for i := r.Count(2); i > 0 && r.err == nil; i-- {
		r.Uvarint()
		n += r.copiedFloats()
	}
	return n
}

// rank1SlicesInto decodes a rank-1 frame's grads group: each section's
// float group by slicesInto, its lengths checked against the payload
// before anything is carved, then held to its dense length n — one
// slice of n floats becomes a Grads entry, two of |x|, |δ| ≥ 1 with
// |x|·|δ| = n a rank-1 section beside a nil one. The sections may stand
// for maxSectionFloats floats in all.
func (r *PayloadReader) rank1SlicesInto(arena *[]float32) ([][]float32, []Rank1Section) {
	cnt := r.Count(2)
	if cnt == 0 {
		return nil, nil
	}
	grads, r1 := make([][]float32, cnt), make([]Rank1Section, cnt)
	total := uint64(0)
	for i := range grads {
		n := r.Uvarint()
		fs := r.slicesInto(arena)
		if r.err != nil {
			return nil, nil
		}
		switch total += n; {
		case total > maxSectionFloats:
			r.Fail("gradient sections stand for more than %d floats", maxSectionFloats)
		case len(fs) == 1 && uint64(len(fs[0])) == n:
			grads[i] = fs[0]
		case len(fs) == 2 && len(fs[0]) > 0 && len(fs[1]) > 0 && uint64(len(fs[0]))*uint64(len(fs[1])) == n:
			r1[i] = Rank1Section{X: fs[0], D: fs[1]}
		default:
			r.Fail("section of %d floats carried as %d slices", n, len(fs))
		}
		if r.err != nil {
			return nil, nil
		}
	}
	return grads, r1
}
