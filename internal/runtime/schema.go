package runtime

import "fmt"

// wireVersion is the version of the schema table below. Any change to a
// row, a wire type or the frame layout bumps it: a hello of another
// version is refused with a *VersionSkewError, so two builds that cannot
// read each other's frames never exchange one past the handshake. The
// hello row itself never changes, so every build reads any build's hello
// whole and verifies its trailer before it judges the version.
const wireVersion = 4

// A wireType is how one field is laid out in a frame. Counts are
// uvarints; a count read before the fleet's element cap applies is at
// most maxCount, and storage sized by it grows as its bytes arrive.
type wireType uint8

const (
	tUint    wireType = iota // uvarint of a value that is never negative
	tInt                     // zigzag varint
	tFlag                    // one byte, 0 or 1
	tFloat                   // gob's float rule (dsm.AppendFloat): float64 bits byte-reversed, below 128 one byte, else a negated byte count · the significant bytes
	tName                    // uvarint length ≤ maxNameLen · bytes, interned by the receiving codec
	tText                    // uvarint length · bytes
	tBytes                   // uvarint length · bytes
	tInts                    // uvarint count · zigzag varints
	tTexts                   // uvarint count · tText each
	tFloats                  // uvarint count · tFloat each
	tGaps                    // uvarint count ≤ element cap · ascending offsets as uvarint gaps, the first from −1
	tColumn                  // uvarint count ≤ element cap, one per offset when the row carries offsets · little-endian float64s
	tPart                    // uvarint rank (0: none) · uvarint extents · uvarint dim, lo, hi · little-endian float64s
	tParts                   // record list: uvarint count · dsm partition records (dsm.AppendPartition), each of at most maxCount values, a rotated one (MsgRotate) of at most the element cap
	tSamples                 // record list: uvarint count · (tInts key · tFloat value)
	tDims                    // record list: uvarint count · (tText name · tInts extents), by name
	tPairs                   // record list: uvarint count · (tText key · tText value), by key
	tDump                    // record list: uvarint 1 + buffer count (0: none) · tracer id, start · per buffer pid, tid, name, dropped and its spans
)

// A field names one Msg field a frame can carry; fVersion is the
// table's own version, which only a hello carries.
type field uint8

const (
	fVersion field = iota
	fExecutorID
	fPeerAddr
	fPeers
	fTrace
	fArray
	fParts
	fPart
	fRotated
	fOrdered
	fSamples
	fLoopName
	fTimeDim
	fPass
	fStepIndex
	fEpoch
	fTimeLo
	fTimeHi
	fOffsets
	fValues
	fAbsolute
	fAccName
	fAccValue
	fStatIters
	fStatComputeNs
	fStatRotWaitNs
	fStatCommNs
	fLoopSrc
	fPlanBlob
	fArrayDims
	fBuffers
	fGlobalNames
	fGlobalVals
	fAccumNames
	fErr
	fLost
	fT1
	fTracerID
	fDump
	numFields
)

// col is one field of a row and its wire type.
type col struct {
	f field
	t wireType
}

// schema lists, for each kind, the fields its frame carries in order:
// one frame is uvarint seq · uvarint kind · the row's fields · CRC32C.
// The encoder, the decoder, FuzzDecodeFrame's seeds and DESIGN.md's
// "Wire format" table (held to it by internal/lint) all read this one
// table. The raw float64 payloads (tColumn, tPart) stream from their
// storage after the rest of the frame, so each ends its row. No row
// carries what its receiver knows (DESIGN.md "Wire format").
var schema = [...][]col{
	MsgHello:        {{fVersion, tUint}, {fExecutorID, tInt}, {fPeerAddr, tText}},
	MsgSetup:        {{fExecutorID, tUint}, {fPeers, tTexts}, {fTrace, tFlag}},
	MsgArrayPart:    {{fArray, tName}, {fRotated, tFlag}, {fOrdered, tFlag}, {fParts, tParts}},
	MsgServedShard:  {{fOffsets, tInts}, {fParts, tParts}},
	MsgIterPart:     {{fSamples, tSamples}},
	MsgExecBlock:    {{fTimeDim, tInt}, {fRotated, tFlag}, {fOrdered, tFlag}, {fPass, tUint}, {fStepIndex, tUint}, {fEpoch, tUint}, {fTimeLo, tInt}, {fTimeHi, tInt}},
	MsgBlockDone:    {{fAccValue, tFloat}, {fStatIters, tUint}, {fStatComputeNs, tUint}, {fStatRotWaitNs, tUint}, {fStatCommNs, tUint}},
	MsgRotate:       {{fArray, tName}, {fParts, tParts}, {fPart, tPart}},
	MsgPrefetch:     {{fEpoch, tUint}, {fArray, tName}, {fOffsets, tGaps}},
	MsgPrefetchResp: {{fValues, tColumn}},
	MsgUpdateBatch:  {{fExecutorID, tUint}, {fEpoch, tUint}, {fAbsolute, tFlag}, {fArray, tName}, {fOffsets, tGaps}, {fValues, tColumn}},
	MsgGather:       {{fArray, tName}},
	MsgGatherResp:   {{fParts, tParts}},
	MsgAccumQuery:   {{fAccName, tName}},
	MsgAccumResp:    {{fAccValue, tFloat}},
	MsgDefineLoop:   {{fLoopName, tText}, {fLoopSrc, tText}, {fArrayDims, tDims}, {fBuffers, tPairs}, {fGlobalNames, tTexts}, {fGlobalVals, tFloats}, {fAccumNames, tTexts}, {fPlanBlob, tBytes}},
	MsgShutdown:     {},
	MsgAck:          {},
	MsgError:        {{fErr, tText}, {fLost, tFlag}},
	MsgPing:         {},
	MsgTraceSync:    {{fT1, tInt}},
	MsgTraceDump:    {{fTracerID, tInt}, {fDump, tDump}},
}

// fields points at each Msg field a frame can carry, by field; the
// version is the table's own, so its entry is nil.
func (m *Msg) fields() [numFields]any {
	return [numFields]any{
		fExecutorID:    &m.ExecutorID,
		fPeerAddr:      &m.PeerAddr,
		fPeers:         &m.Peers,
		fTrace:         &m.Trace,
		fArray:         &m.Array,
		fParts:         &m.Parts,
		fPart:          &m.part,
		fRotated:       &m.Rotated,
		fOrdered:       &m.Ordered,
		fSamples:       &m.Samples,
		fLoopName:      &m.LoopName,
		fTimeDim:       &m.TimeDim,
		fPass:          &m.Pass,
		fStepIndex:     &m.StepIndex,
		fEpoch:         &m.Epoch,
		fTimeLo:        &m.TimeLo,
		fTimeHi:        &m.TimeHi,
		fOffsets:       &m.Offsets,
		fValues:        &m.Values,
		fAbsolute:      &m.Absolute,
		fAccName:       &m.AccName,
		fAccValue:      &m.AccValue,
		fStatIters:     &m.StatIters,
		fStatComputeNs: &m.StatComputeNs,
		fStatRotWaitNs: &m.StatRotWaitNs,
		fStatCommNs:    &m.StatCommNs,
		fLoopSrc:       &m.LoopSrc,
		fPlanBlob:      &m.PlanBlob,
		fArrayDims:     &m.ArrayDims,
		fBuffers:       &m.Buffers,
		fGlobalNames:   &m.GlobalNames,
		fGlobalVals:    &m.GlobalVals,
		fAccumNames:    &m.AccumNames,
		fErr:           &m.Err,
		fLost:          &m.Lost,
		fT1:            &m.T1,
		fTracerID:      &m.TracerID,
		fDump:          &m.Dump,
	}
}

// fieldCols gives each field a column of some row that carries it.
var fieldCols = func() (cs [numFields]col) {
	for _, row := range schema {
		for _, c := range row {
			cs[c.f] = c
		}
	}
	return cs
}()

// isSet reports whether the field p points at, framed as c, holds
// anything but its zero value, which every wire type frames as the one
// byte 0.
func isSet(c col, p any) bool {
	var buf [16]byte
	h, tail := c.put(buf[:0], p)
	return len(h) != 1 || h[0] != 0 || tail != nil
}

// frameable says why m cannot be framed, nil when it can: its kind has
// no row, it sets a field outside its row, its offsets do not ascend
// from 0, or its value column does not match them one for one. Nothing
// is sent for such a message.
func (m *Msg) frameable() error {
	if uint(m.Kind) >= uint(len(schema)) {
		return fmt.Errorf("runtime: unframeable message: kind %d has no schema row", m.Kind)
	}
	var in [numFields]bool
	gaps := false
	for _, c := range schema[m.Kind] {
		in[c.f], gaps = true, gaps || c.t == tGaps
	}
	ptrs := m.fields()
	for f := fVersion + 1; f < numFields; f++ { // the version is the table's own
		if !in[f] && isSet(fieldCols[f], ptrs[f]) {
			return fmt.Errorf("runtime: unframeable message: kind %d sets field %d, which its row lacks", m.Kind, f)
		}
	}
	prev := int64(-1)
	for _, off := range m.Offsets {
		if gaps && off <= prev {
			return fmt.Errorf("runtime: unframeable message: offset %d follows %d", off, prev)
		}
		prev = off
	}
	if in[fOffsets] && in[fValues] && len(m.Values) != len(m.Offsets) {
		return fmt.Errorf("runtime: unframeable message: %d values for %d offsets", len(m.Values), len(m.Offsets))
	}
	return nil
}
