package trace

import (
	"fmt"
	"time"

	"dibella/internal/wire"
)

// minEventSize is an encoded Event with empty Name and Tag.
const minEventSize = 4 + 1 + 8 + 8 + 8 + 4 + 8

// Encode serializes the snapshot for the teardown gather: the byte row a
// rank hands to spmd.GatherTo.
func (re RankEvents) Encode() []byte {
	b := wire.U32(make([]byte, 0, 20+len(re.Events)*(minEventSize+16)), uint32(re.Rank))
	b = wire.U64(wire.U64(b, re.Dropped), uint64(len(re.Events)))
	for i := range re.Events {
		e := &re.Events[i]
		b = wire.U8(wire.Bytes(b, e.Name), e.Phase)
		b = wire.U64(wire.F64(wire.U64(b, uint64(e.Wall)), e.Virt), uint64(e.Arg))
		b = wire.U64(wire.Bytes(b, e.Tag), e.Flow)
	}
	return b
}

// DecodeRankEvents parses an Encode blob.
func DecodeRankEvents(b []byte) (RankEvents, error) {
	r := wire.NewReader(b)
	re := RankEvents{Rank: int(r.U32()), Dropped: r.U64()}
	if n := r.Count(r.U64(), minEventSize); n > 0 {
		re.Events = make([]Event, n)
	}
	for i := range re.Events {
		re.Events[i] = Event{
			Name: r.String(), Phase: r.U8(),
			Wall: time.Duration(r.U64()), Virt: r.F64(), Arg: int64(r.U64()),
			Tag: r.String(), Flow: r.U64(),
		}
	}
	if err := r.Finish(); err != nil {
		return RankEvents{}, fmt.Errorf("trace: rank events: %w", err)
	}
	return re, nil
}
