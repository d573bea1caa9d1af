package mpi

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Piggyback tally framing. A "tally" is a small reduction payload — a
// fixed-length int64 vector both endpoints agree on (per-part size
// deltas, a convergence counter) — appended to a point-to-point message
// so a round of boundary exchange can double as the iteration's
// reduction, removing the need for a separate world-wide Allreduce.
//
// The frame is a suffix so the message's primary payload keeps its
// natural prefix position. Reading from the end, the last element is a
// header h:
//
//	h == -1: dense — the preceding tallyLen elements are the tally
//	         values verbatim.
//	h >= 0:  sparse — h = k | vb<<32 announces k nonzero entries, each
//	         packed as (index << vb) | zigzag(value) into w = ib + vb
//	         bits, where ib = bits.Len(tallyLen-1) is the index width
//	         and vb the frame's widest zigzagged value. The preceding
//	         ceil(k / (64/w)) elements hold 64/w entries each, lowest
//	         bits first.
//
// The encoder picks whichever is shorter; an all-zero tally costs a
// single header element. Both sides must agree on tallyLen (it is part
// of the exchange protocol, like a datatype), exactly as they must
// agree on the length of an Allreduce.

// zigzag maps small-magnitude signed values to small unsigned ones.
func zigzag(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

// tallyIndexBits returns the index width ib of a tallyLen-long tally.
func tallyIndexBits(tallyLen int) int { return bits.Len(uint(tallyLen - 1)) }

// packTallyEntry packs (index, value) into ib+vb bits as
// (index << vb) | zigzag(value); ok reports whether the pair fits.
func packTallyEntry(idx int, v int64, ib, vb int) (packed uint64, ok bool) {
	z := zigzag(v)
	if idx < 0 || bits.Len(uint(idx)) > ib || bits.Len64(z) > vb || ib+vb > 64 {
		return 0, false
	}
	return uint64(idx)<<vb | z, true
}

// unpackTallyEntry reverses packTallyEntry for value width vb.
func unpackTallyEntry(packed uint64, vb int) (idx int, v int64) {
	z := packed & (1<<vb - 1)
	return int(packed >> vb), int64(z>>1) ^ -int64(z&1)
}

// AppendTally appends the tally frame for tally to buf and returns the
// extended buffer. len(tally) is the protocol's tallyLen; the receiver
// must call SplitTally with the same value. The appended frame length
// is accounted in Stats.TallyElems. The frame is sized in a counting
// pass and encoded straight into buf, so callers reusing their send
// buffers across rounds pay no per-round allocation here.
//
//repro:hotpath
func AppendTally(c *Comm, buf []int64, tally []int64) []int64 {
	if len(tally) == 0 {
		return buf
	}
	before := len(buf)
	ib := tallyIndexBits(len(tally))
	nz, vb := 0, 0
	for _, v := range tally {
		if v != 0 {
			nz++
			vb = max(vb, bits.Len64(zigzag(v)))
		}
	}
	if w := ib + vb; nz == 0 || w <= 64 && (nz+64/w-1)/(64/w) < len(tally) {
		var word uint64
		j, per := 0, 64/max(w, 1)
		for i, v := range tally {
			if v == 0 {
				continue
			}
			p, _ := packTallyEntry(i, v, ib, vb)
			word |= p << (j % per * w)
			if j++; j%per == 0 {
				buf = append(buf, int64(word))
				word = 0
			}
		}
		if j%per != 0 {
			buf = append(buf, int64(word))
		}
		buf = append(buf, int64(nz)|int64(vb)<<32)
	} else {
		buf = append(buf, tally...)
		buf = append(buf, -1)
	}
	atomic.AddInt64(&c.stats.TallyElems, int64(len(buf)-before))
	return buf
}

// SplitTally strips the tally frame from msg, adds the decoded tally
// element-wise into dst (len(dst) must be the sender's tallyLen), and
// returns the primary payload prefix. It panics on a malformed frame —
// with agreed tally lengths on both sides this cannot happen.
//
//repro:hotpath
func SplitTally(msg []int64, dst []int64) []int64 {
	if len(dst) == 0 {
		return msg
	}
	if len(msg) == 0 {
		panic("mpi: SplitTally on message without tally frame")
	}
	h := msg[len(msg)-1]
	body := msg[:len(msg)-1]
	if h == -1 {
		if len(body) < len(dst) {
			panic(fmt.Sprintf("mpi: dense tally frame of %d elements, need %d", len(body), len(dst)))
		}
		frame := body[len(body)-len(dst):]
		for i, v := range frame {
			dst[i] += v
		}
		return body[:len(body)-len(dst)]
	}
	k, vb := int(h&(1<<32-1)), int(h>>32)
	w := tallyIndexBits(len(dst)) + vb
	if h < 0 || k > len(dst) || k > 0 && (vb < 1 || w > 64) {
		panic(fmt.Sprintf("mpi: sparse tally header %#x invalid for tally length %d", h, len(dst)))
	}
	if k == 0 {
		return body
	}
	per := 64 / w
	n := (k + per - 1) / per
	if n > len(body) {
		panic(fmt.Sprintf("mpi: sparse tally of %d elements outside message of %d elements", n, len(body)))
	}
	frame := body[len(body)-n:]
	for j := 0; j < k; j++ {
		idx, v := unpackTallyEntry(uint64(frame[j/per])>>(j%per*w)&(1<<w-1), vb)
		if idx >= len(dst) {
			panic(fmt.Sprintf("mpi: sparse tally index %d outside tally length %d", idx, len(dst)))
		}
		dst[idx] += v
	}
	return body[:len(body)-n]
}
