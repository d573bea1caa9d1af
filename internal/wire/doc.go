// Package wire implements the frame codec of the socket transport: the
// length-prefixed (kind, tag, payload) encoding that carries every
// point-to-point message and collective contribution between rank
// processes.
//
// # Frame layout
//
// A frame is laid out as
//
//		┌────────────────┬──────┬─────────┬──────────────────────┐
//		│ uvarint nWords │ kind │ tag     │ payload              │
//		│ 1–5 bytes      │ 1 B  │ 4 B LE  │ 8·nWords bytes LE    │
//		└────────────────┴──────┴─────────┴──────────────────────┘
//
//	  - nWords is the payload length in 64-bit words, encoded as an
//	    unsigned varint (the one variable-width field; everything after
//	    it is fixed-size, so a reader knows the frame's full extent after
//	    at most headerMax bytes). Frames larger than MaxFrameWords are
//	    invalid: the bound is what lets a reader reject a corrupt length
//	    before allocating or over-reading.
//	  - kind discriminates the frame's stream: KindData frames belong to
//	    the point-to-point FIFO of their (src, dst) pair, KindColl frames
//	    to the collective stream, KindHello is the one-shot connection
//	    handshake, and KindPing is the liveness heartbeat (empty payload,
//	    consumed by the reader as progress and never queued). The split
//	    is what keeps a drainer goroutine
//	    receiving data frames while the main goroutine completes a
//	    collective — the two streams demultiplex into disjoint queues on
//	    arrival, mirroring the in-process transport's disjoint data and
//	    collective mailboxes.
//	  - tag is the sender's 32-bit round tag (mpi.RoundTag: 8-bit wave id
//	    + 24-bit sequence) on data frames, the collective sequence number
//	    on collective frames, and the sender's rank on hello frames. Tags
//	    never affect matching; receivers assert them to turn protocol
//	    skew into an immediate error instead of mis-decoded payloads.
//	  - payload is nWords little-endian 64-bit words. Element types other
//	    than int64 are bit-converted by the transport (float64 via
//	    math.Float64bits), never reinterpreted by the codec.
//
// # Ordering contract
//
// The codec itself is stateless; ordering comes from the carrier. The
// socket transport writes every frame for one destination on that
// destination's single connection in send order, so both streams
// inherit TCP/Unix-socket FIFO delivery per ordered pair — MPI's
// non-overtaking guarantee — while frames from different sources stay
// independent. Decoders must treat any malformed input (truncated
// header or payload, oversized or overlong varint, unknown kind) as an
// error, never a panic or an over-read; FuzzFrameDecode enforces this.
package wire
