package spmd

import "fmt"

// This file provides byte-accurate exchange of variable-length payloads
// ([]byte records such as read sequences). A real MPI code packs these into
// contiguous send buffers with a displacement vector before MPI_Alltoallv;
// we do the same so that (a) byte accounting for the communication model is
// exact and (b) the packing cost the paper reports as "Packing" in Fig. 4
// corresponds to real work.

// PackedBufs is one rank's packed send (or received) payload for a
// variable-length exchange: concatenated bytes plus item lengths.
type PackedBufs struct {
	Data []byte
	Lens []int32
}

// AppendItem adds one variable-length item to the buffer.
func (p *PackedBufs) AppendItem(item []byte) {
	p.Data = append(p.Data, item...)
	p.Lens = append(p.Lens, int32(len(item)))
}

// Items splits the packed data back into items. The returned slices alias
// Data.
func (p *PackedBufs) Items() [][]byte {
	out := make([][]byte, len(p.Lens))
	off := 0
	for i, n := range p.Lens {
		out[i] = p.Data[off : off+int(n)]
		off += int(n)
	}
	if off != len(p.Data) {
		panic(fmt.Sprintf("spmd: packed buffer corrupt: consumed %d of %d bytes", off, len(p.Data)))
	}
	return out
}

// AlltoallvPacked exchanges per-destination packed buffers: rank i's
// send[j] arrives as rank j's recv[i]. Byte accounting covers both the
// payload and the length vectors.
func AlltoallvPacked(c *Comm, send []PackedBufs) []PackedBufs {
	if len(send) != c.Size() {
		panic(fmt.Sprintf("spmd: AlltoallvPacked send length %d != world size %d", len(send), c.Size()))
	}
	data := make([][]byte, c.Size())
	lens := make([][]int32, c.Size())
	for i := range send {
		data[i] = send[i].Data
		lens[i] = send[i].Lens
	}
	rdata := Alltoallv(c, data)
	rlens := Alltoallv(c, lens)
	out := make([]PackedBufs, c.Size())
	for i := range out {
		if n, err := packedLen(rlens[i]); err != nil || n != int64(len(rdata[i])) {
			if err == nil {
				err = fmt.Errorf("%d bytes under item lengths summing to %d", len(rdata[i]), n)
			}
			collectiveFailed(c, "alltoallv packed", fmt.Errorf("rank %d sent %w", i, err))
		}
		out[i] = PackedBufs{Data: rdata[i], Lens: rlens[i]}
	}
	return out
}

// packedLen is the payload item lengths describe, or an error naming the
// first negative one.
func packedLen(lens []int32) (int64, error) {
	var sum int64
	for i, n := range lens {
		if n < 0 {
			return 0, fmt.Errorf("item %d of length %d", i, n)
		}
		sum += int64(n)
	}
	return sum, nil
}
