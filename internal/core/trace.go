package core

// Binary event traces: the instrumentation stream of one execution
// (paper §III-A) serialized to a compact varint format, so a program
// recorded once can be replayed into any future configuration without
// re-executing. Budgets (steps, heap, wall-clock) are enforced at record
// time by the interpreter; replay consumes the recorded stream and cannot
// fail on them — only successful executions produce complete traces.
//
// Layout, version 3 (integers are uvarints; zz marks a zigzag-coded
// signed delta):
//
//	magic "LPTr", version byte 3
//	uvarint len(module name), name bytes
//	uvarint loop count (must match the replaying module's analysis)
//	records, each opening with one header byte:
//	  1spTTTTT  load (s=0) or store (s=1); p=1: the predicted address,
//	            no field follows; p=0: zz address delta from the
//	            previous load/store address
//	  0oooTTTT  o=1 enter: uvarint seq, zz sp delta, uvarint k, k × val
//	            o=2 iter:  uvarint seq, zz sp delta, uvarint k,
//	                       k × (val, defTick)
//	            o=3 exit:  uvarint seq
//	            o=4 end:   uvarint total ticks (truncation + corruption
//	                       check)
//	            o=5 next:  an iter of the innermost live loop at the
//	                       previous enter/iter stack pointer, with one
//	                       observation per observed phi:
//	                       len(Observed) × (val, defTick)
//	            any other o is corrupt
//
// Ticks have no record of their own: the T field carries the ticks
// accumulated since the previous record, delivered before the record's
// event, and its top value (31 in memory records, 15 in the others)
// means "that many plus a uvarint following the header byte". The sp
// delta is from the previous enter/iter record's stack pointer (0 before
// the first). A defTick is 0 for -1 (no in-loop producer), otherwise
// 1 + zz(clock − defTick), where clock is the tick total through this
// record. The k-th val of a loop's payload carries no kind: it has the
// kind of the loop's k-th observed phi, and is 8 bytes of little-endian
// IEEE bits for KFloat and a zz integer otherwise.
//
// Writer and reader keep the same model of the stream, updated record by
// record. Enter records push their loop on a loop stack, exit records pop
// one, and iter and next records start a new iteration of the innermost
// loop. Each memory record inside a loop takes the next position in the
// innermost loop's current iteration; positions restart at that loop's
// enter and iter records and resume in the enclosing loop's iteration
// after an exit. The model keeps traceDepths loops and, for each loop
// depth and each of the first tracePositions positions, an address slot:
// the last address at that slot and the stride from the one before. A
// slot predicts its last address plus its stride (the stride predictor
// of paper §III-C, applied to addresses), and every memory record, hit or
// miss, moves its slot on. Memory records outside loops, below the
// deepest modelled loop or past the last position have no slot and are
// never predicted, and next records are only written while the innermost
// loop is modelled; so the model is fixed-size for any input.
//
// Loops are addressed by their stable per-module Seq ordinal, so a trace
// is only meaningful against the module analysis that recorded it (the
// bench harness and the serve trace tier key traces by a source hash to
// guarantee that).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// traceMagic opens every trace, followed by traceVersion.
var traceMagic = [4]byte{'L', 'P', 'T', 'r'}

// traceVersion is the current format version.
const traceVersion = 3

// Record header bits.
const (
	recMem       byte = 0x80 // load/store record
	recStore     byte = 0x40 // the memory record is a store
	recPredicted byte = 0x20 // the memory record's address is the predicted one
	memTicks          = 0x1f // memory records' pending-tick field and escape value
	opTicks           = 0x0f // the other records' pending-tick field and escape value
)

// Opcodes of the records without recMem, in header bits 4-6.
const (
	opEnter byte = 1 + iota
	opIter
	opExit
	opEnd
	opNext
)

// Encoding bounds: a record's fixed fields (header, tick escape and three
// uvarints) and one payload value plus its defTick.
const (
	maxRecordHead = 1 + 4*binary.MaxVarintLen64
	maxRecordVal  = 2 * binary.MaxVarintLen64
)

// maxTraceName bounds the module name a trace header may claim.
const maxTraceName = 1 << 20

// traceBlockSize is the size of one pooled traceBlock, a whole number of
// pages: the stream model takes its share, and the writer's output buffer
// or the reader's input block the rest.
const traceBlockSize = 1 << 16

// The stream model's bounds: the loops it keeps, innermost last, and the
// address slots per loop iteration.
const (
	traceDepths    = 8
	tracePositions = 16
)

// ErrTraceVersion matches the error of a trace written in a format
// version this build does not read: a stale trace to re-record, not a
// corrupt one.
var ErrTraceVersion = errors.New("core: trace: unsupported version")

// errTrace prefixes every other trace decoding error.
var errTrace = errors.New("core: trace")

// zigzag maps signed to unsigned so small-magnitude deltas stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// traceModel is the stream model writer and reader both keep (see the
// layout comment): the loop stack and the address slots.
type traceModel struct {
	depth int // live loops, including those past traceDepths
	loops [traceDepths]*analysis.LoopMeta
	pos   [traceDepths]int // next address position in each loop's current iteration
	slots [traceDepths][tracePositions]addrSlot
}

// addrSlot is one address slot: the last address at its position and the
// stride from the address before it.
type addrSlot struct{ addr, stride int64 }

// enter pushes a loop.
func (m *traceModel) enter(lm *analysis.LoopMeta) {
	if m.depth < traceDepths {
		m.loops[m.depth], m.pos[m.depth] = lm, 0
	}
	m.depth++
}

// iter starts the innermost loop's next iteration.
func (m *traceModel) iter() {
	if d := m.depth - 1; d >= 0 && d < traceDepths {
		m.pos[d] = 0
	}
}

// exit pops a loop.
func (m *traceModel) exit() {
	if m.depth > 0 {
		m.depth--
	}
}

// innermost returns the innermost live loop, or nil when no loop is live
// or the innermost one lies past traceDepths.
func (m *traceModel) innermost() *analysis.LoopMeta {
	if d := m.depth - 1; d >= 0 && d < traceDepths {
		return m.loops[d]
	}
	return nil
}

// slot returns the address slot of the next memory record and takes its
// position, or returns nil for a record that has none.
func (m *traceModel) slot() *addrSlot {
	d := m.depth - 1
	if d < 0 || d >= traceDepths {
		return nil
	}
	p := m.pos[d]
	if p >= tracePositions {
		return nil
	}
	m.pos[d] = p + 1
	return &m.slots[d][p]
}

// traceBlock is one trace's pooled state, writer or reader: the stream
// model and the byte block.
type traceBlock struct {
	model traceModel
	buf   [traceBlockSize - unsafe.Sizeof(traceModel{})]byte
}

// traceBlocks recycles trace blocks: a steady stream of recordings and
// replays encodes and decodes without allocating a fresh block each.
var traceBlocks = sync.Pool{New: func() any { return new(traceBlock) }}

// getTraceBlock takes a block from traceBlocks with a fresh model.
func getTraceBlock() *traceBlock {
	blk := traceBlocks.Get().(*traceBlock)
	blk.model = traceModel{}
	return blk
}

// TraceWriter serializes the instrumentation event stream. It implements
// interp.Hooks and copies event payloads immediately (by encoding them),
// so it is safe to wire directly to the interpreter or behind the fan-out
// tee. Errors from the underlying writer are sticky and surface at Close.
type TraceWriter struct {
	w       io.Writer
	info    *analysis.ModuleInfo
	err     error
	blk     *traceBlock // from traceBlocks; nil once Close returned it
	buf     []byte      // encoded records not yet written to w, in blk
	last    int64       // previous load/store address (delta base)
	sp      int64       // previous enter/iter stack pointer (delta base)
	pending int64       // ticks not yet carried by a record header
	ticks   int64       // Σ tick n: the defTick base, and the end-record checksum
}

// NewTraceWriter starts a trace of one execution of info's module. The
// header is written with the first full block or at Close.
func NewTraceWriter(w io.Writer, info *analysis.ModuleInfo) *TraceWriter {
	blk := getTraceBlock()
	tw := &TraceWriter{w: w, info: info, blk: blk, buf: blk.buf[:0]}
	name := info.Mod.Name
	tw.buf = append(tw.buf, traceMagic[:]...)
	tw.buf = append(tw.buf, traceVersion)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(len(name)))
	tw.buf = append(tw.buf, name...)
	tw.buf = binary.AppendUvarint(tw.buf, uint64(len(info.Loops)))
	return tw
}

// room flushes the buffer unless n more bytes fit in it.
func (tw *TraceWriter) room(n int) {
	if cap(tw.buf)-len(tw.buf) < n {
		tw.flush()
	}
}

// flush hands the buffered bytes to the sink; after a failure they are
// discarded, since the trace is already lost.
func (tw *TraceWriter) flush() {
	if tw.err == nil && len(tw.buf) > 0 {
		n, err := tw.w.Write(tw.buf)
		if err == nil && n < len(tw.buf) {
			err = io.ErrShortWrite
		}
		tw.err = err
	}
	tw.buf = tw.buf[:0]
}

// fail makes err the trace's sticky error unless it already has one.
func (tw *TraceWriter) fail(err error) {
	if tw.err == nil {
		tw.err = err
	}
}

// head starts a record: it makes room for the record's fixed fields and
// appends the header, tag plus the pending ticks in the field whose
// all-ones value is esc, with the excess from esc up in a trailing
// uvarint.
func (tw *TraceWriter) head(tag byte, esc int64) {
	tw.room(maxRecordHead)
	p := tw.pending
	tw.pending = 0
	if uint64(p) < uint64(esc) {
		tw.buf = append(tw.buf, tag|byte(p))
		return
	}
	tw.buf = append(tw.buf, tag|byte(esc))
	tw.buf = binary.AppendUvarint(tw.buf, uint64(p-esc))
}

func (tw *TraceWriter) uvarint(v uint64) { tw.buf = binary.AppendUvarint(tw.buf, v) }

// val encodes value k of lm's payload: the IEEE bits of a float (fixed
// 8 bytes — random mantissas varint badly) or a zigzag varint of the
// integer payload. The kind is lm's k-th observed phi's, so it takes no
// byte; a value of another kind fails the trace.
func (tw *TraceWriter) val(lm *analysis.LoopMeta, k int, v interp.Val) {
	if want := lm.Observed[k].Ty.Kind(); v.K != want {
		tw.fail(fmt.Errorf("core: trace: loop %s value %d has kind %v, its phi %v", lm.ID(), k, v.K, want))
	}
	tw.room(maxRecordVal)
	if v.K == ir.KFloat {
		tw.buf = binary.LittleEndian.AppendUint64(tw.buf, math.Float64bits(v.F))
		return
	}
	tw.uvarint(zigzag(v.I))
}

// seqOf resolves a loop meta to its trace ordinal, failing the trace for
// metas outside the module's dense numbering (hand-built test metas).
func (tw *TraceWriter) seqOf(lm *analysis.LoopMeta) uint64 {
	if lm.Seq < 0 || lm.Seq >= len(tw.info.Loops) || tw.info.Loops[lm.Seq] != lm {
		tw.fail(fmt.Errorf("core: trace: loop meta (seq %d) is not addressable in this module", lm.Seq))
		return 0
	}
	return uint64(lm.Seq)
}

// loopHead appends the fields enter and iter records share. It reports
// false, failing the trace, for a payload longer than lm observes.
func (tw *TraceWriter) loopHead(op byte, lm *analysis.LoopMeta, sp int64, k int) bool {
	seq := tw.seqOf(lm)
	if k > len(lm.Observed) {
		tw.fail(fmt.Errorf("core: trace: %d payload values for loop %s, which observes %d", k, lm.ID(), len(lm.Observed)))
		return false
	}
	tw.head(op<<4, opTicks)
	tw.uvarint(seq)
	tw.uvarint(zigzag(sp - tw.sp))
	tw.sp = sp
	tw.uvarint(uint64(k))
	return true
}

// Tick implements interp.Hooks: ticks only accumulate until the next
// record's header carries them.
func (tw *TraceWriter) Tick(n int64) {
	tw.pending += n
	tw.ticks += n
}

// EnterLoop implements interp.Hooks.
func (tw *TraceWriter) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	if !tw.loopHead(opEnter, lm, sp, len(init)) {
		return
	}
	for k, v := range init {
		tw.val(lm, k, v)
	}
	tw.blk.model.enter(lm)
}

// IterLoop implements interp.Hooks: a full iteration of the innermost
// modelled loop at the previous stack pointer takes a next record.
func (tw *TraceWriter) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	m := &tw.blk.model
	if m.innermost() == lm && sp == tw.sp && len(obs) == len(lm.Observed) {
		tw.head(opNext<<4, opTicks)
	} else if !tw.loopHead(opIter, lm, sp, len(obs)) {
		return
	}
	m.iter()
	for k, o := range obs {
		tw.val(lm, k, o.Val)
		var code uint64
		if o.DefTick != -1 {
			code = 1 + zigzag(tw.ticks-o.DefTick)
		}
		tw.uvarint(code)
	}
}

// ExitLoop implements interp.Hooks.
func (tw *TraceWriter) ExitLoop(lm *analysis.LoopMeta) {
	seq := tw.seqOf(lm)
	tw.head(opExit<<4, opTicks)
	tw.uvarint(seq)
	tw.blk.model.exit()
}

// mem appends one load or store record.
func (tw *TraceWriter) mem(tag byte, addr int64) {
	s := tw.blk.model.slot()
	if s != nil && s.addr+s.stride == addr {
		tw.head(tag|recPredicted, memTicks)
	} else {
		tw.head(tag, memTicks)
		tw.uvarint(zigzag(addr - tw.last))
	}
	if s != nil {
		s.addr, s.stride = addr, addr-s.addr
	}
	tw.last = addr
}

// Load implements interp.Hooks.
func (tw *TraceWriter) Load(addr int64) { tw.mem(recMem, addr) }

// Store implements interp.Hooks.
func (tw *TraceWriter) Store(addr int64) { tw.mem(recMem|recStore, addr) }

// Close writes the end record and flushes, returning the first error the
// trace hit, and returns the writer's block to the pool; the writer takes
// no events after it. A trace without a successful Close is truncated and
// will be rejected at replay.
func (tw *TraceWriter) Close() error {
	if tw.blk == nil {
		return tw.err
	}
	tw.head(opEnd<<4, opTicks)
	tw.uvarint(uint64(tw.ticks))
	tw.flush()
	traceBlocks.Put(tw.blk)
	tw.blk, tw.buf = nil, nil
	return tw.err
}

// maxEmptyReads is how many consecutive (0, nil) reads the decoder
// tolerates before failing with io.ErrNoProgress.
const maxEmptyReads = 100

// Internal field-decoding failures, wrapped with the record they hit.
var (
	errShort    = errors.New("short stream")
	errOverflow = errors.New("varint overflows 64 bits")
)

// TraceReader decodes a recorded trace and replays it into any
// interp.Hooks consumer — typically one or more Engines, which then
// produce Reports bit-identical to a live run. It reads the stream in
// blocks and decodes straight from the block, allocating nothing per
// event.
type TraceReader struct {
	r        io.Reader
	blk      *traceBlock // from traceBlocks; nil once Replay returned it
	buf      []byte      // blk's bytes; [pos, end) is buffered input
	pos, end int
	rerr     error // sticky error of r (io.EOF at the end of the stream)
	metas    []*analysis.LoopMeta
	name     [][]byte // module name, in the pieces it arrived in
	last     int64    // previous load/store address
	sp       int64    // previous enter/iter stack pointer
	ticks    int64    // replay clock: Σ ticks delivered so far
}

// NewTraceReader validates the trace header against the module analysis
// that will consume the replay.
func NewTraceReader(r io.Reader, info *analysis.ModuleInfo) (*TraceReader, error) {
	blk := getTraceBlock()
	tr := &TraceReader{r: r, blk: blk, buf: blk.buf[:], metas: info.Loops}
	if err := tr.header(); err != nil {
		traceBlocks.Put(blk)
		return nil, err
	}
	return tr, nil
}

// header decodes and checks everything before the first record.
func (tr *TraceReader) header() error {
	if !tr.ensure(len(traceMagic) + 1) {
		return fmt.Errorf("%w: reading header: %w", errTrace, tr.cause())
	}
	if [4]byte(tr.buf[:4]) != traceMagic {
		return fmt.Errorf("%w: bad magic %q", errTrace, tr.buf[:4])
	}
	if v := tr.buf[4]; v != traceVersion {
		return fmt.Errorf("%w %d (want %d)", ErrTraceVersion, v, traceVersion)
	}
	tr.pos = len(traceMagic) + 1
	n, err := tr.uvarint()
	if err != nil {
		return tr.bad("module name length", err)
	}
	if n > maxTraceName {
		return fmt.Errorf("%w: module name length %d exceeds %d", errTrace, n, maxTraceName)
	}
	if err := tr.readName(int(n)); err != nil {
		return fmt.Errorf("%w: reading module name: %w", errTrace, tr.cause())
	}
	loops, err := tr.uvarint()
	if err != nil {
		return tr.bad("loop count", err)
	}
	if loops != uint64(len(tr.metas)) {
		return fmt.Errorf("%w: recorded against %d loops, module has %d (stale trace?)",
			errTrace, loops, len(tr.metas))
	}
	return nil
}

// readName reads the n-byte module name block by block as its bytes
// arrive, so a claimed length the stream does not back allocates
// nothing, and one that it does costs one copy of the bytes.
func (tr *TraceReader) readName(n int) error {
	for n > 0 {
		if tr.pos == tr.end && !tr.fill() {
			return errShort
		}
		k := min(n, tr.end-tr.pos)
		tr.name = append(tr.name, bytes.Clone(tr.buf[tr.pos:tr.pos+k]))
		tr.pos += k
		n -= k
	}
	return nil
}

// ModuleName returns the module name recorded in the header.
func (tr *TraceReader) ModuleName() string { return string(bytes.Join(tr.name, nil)) }

// fill moves the unread bytes to the front of the block and reads more
// after them; it reports whether any arrived. The block must have room.
func (tr *TraceReader) fill() bool {
	if tr.rerr != nil {
		return false
	}
	if tr.pos > 0 {
		tr.end = copy(tr.buf, tr.buf[tr.pos:tr.end])
		tr.pos = 0
	}
	for range maxEmptyReads {
		n, err := tr.r.Read(tr.buf[tr.end:])
		tr.end += n
		if err != nil {
			tr.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	tr.rerr = io.ErrNoProgress
	return false
}

// ensure buffers at least n bytes (n <= len(tr.buf)) unless the stream
// ends first, reporting whether it did.
func (tr *TraceReader) ensure(n int) bool {
	for tr.end-tr.pos < n {
		if !tr.fill() {
			return false
		}
	}
	return true
}

// cause is why the stream stopped short: the reader's error, with a
// clean end of stream reported as io.ErrUnexpectedEOF.
func (tr *TraceReader) cause() error {
	if tr.rerr == nil || tr.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return tr.rerr
}

// bad wraps a failure to decode a field of the named record.
func (tr *TraceReader) bad(what string, err error) error {
	if err == errShort {
		return fmt.Errorf("%w: truncated %s: %w", errTrace, what, tr.cause())
	}
	return fmt.Errorf("%w: %s: %w", errTrace, what, err)
}

// uvarint decodes one uvarint. Single-byte values, most of every trace,
// skip the refill check and the general decoder.
func (tr *TraceReader) uvarint() (uint64, error) {
	if p := tr.pos; p < tr.end && tr.buf[p] < 0x80 {
		tr.pos = p + 1
		return uint64(tr.buf[p]), nil
	}
	return tr.uvarintSlow()
}

func (tr *TraceReader) uvarintSlow() (uint64, error) {
	if tr.end-tr.pos < binary.MaxVarintLen64 {
		tr.ensure(binary.MaxVarintLen64) // comes up short only at the stream's end
	}
	v, n := binary.Uvarint(tr.buf[tr.pos:tr.end])
	switch {
	case n > 0:
		tr.pos += n
		return v, nil
	case n < 0:
		return 0, errOverflow
	}
	return 0, errShort
}

// val decodes one payload value of kind k.
func (tr *TraceReader) val(k ir.Kind) (interp.Val, error) {
	if k != ir.KFloat {
		u, err := tr.uvarint()
		return interp.Val{K: k, I: unzigzag(u)}, err
	}
	if tr.end-tr.pos < 8 && !tr.ensure(8) {
		return interp.Val{}, errShort
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(tr.buf[tr.pos:]))
	tr.pos += 8
	return interp.Val{K: k, F: f}, nil
}

// meta decodes a loop ordinal.
func (tr *TraceReader) meta() (*analysis.LoopMeta, error) {
	seq, err := tr.uvarint()
	if err != nil {
		return nil, err
	}
	if seq >= uint64(len(tr.metas)) {
		return nil, fmt.Errorf("loop ordinal %d out of range (module has %d)", seq, len(tr.metas))
	}
	return tr.metas[seq], nil
}

// loopHead decodes the fields enter and iter records share: the loop,
// its stack pointer, and a payload count no larger than the loop's
// observed phis.
func (tr *TraceReader) loopHead() (lm *analysis.LoopMeta, sp int64, k int, err error) {
	if lm, err = tr.meta(); err != nil {
		return nil, 0, 0, err
	}
	d, err := tr.uvarint()
	if err != nil {
		return nil, 0, 0, err
	}
	tr.sp += unzigzag(d)
	n, err := tr.uvarint()
	if err != nil {
		return nil, 0, 0, err
	}
	if n > uint64(len(lm.Observed)) {
		return nil, 0, 0, fmt.Errorf("payload count %d for %s, which observes %d", n, lm.ID(), len(lm.Observed))
	}
	return lm, tr.sp, int(n), nil
}

// observations decodes the k observations of an iter or next record of
// lm into obs.
func (tr *TraceReader) observations(lm *analysis.LoopMeta, k int, obs []interp.LCDObs) ([]interp.LCDObs, error) {
	obs = obs[:0]
	for i := range k {
		v, err := tr.val(lm.Observed[i].Ty.Kind())
		if err != nil {
			return obs, tr.bad("observation", err)
		}
		c, err := tr.uvarint()
		if err != nil {
			return obs, tr.bad("def tick", err)
		}
		dt := int64(-1)
		if c != 0 {
			dt = tr.ticks - unzigzag(c-1)
		}
		obs = append(obs, interp.LCDObs{Val: v, DefTick: dt})
	}
	return obs, nil
}

// Replay streams every recorded event into h, in order. It fails on a
// truncated or corrupt trace; budgets were enforced at record time, so a
// complete trace always replays to completion. Scratch slices passed to h
// are reused across events, exactly like a live interpreter. A reader
// replays once: Replay returns its block to the pool.
func (tr *TraceReader) Replay(h interp.Hooks) error {
	if tr.blk == nil {
		return fmt.Errorf("%w: reader already replayed", errTrace)
	}
	defer func() {
		traceBlocks.Put(tr.blk)
		tr.blk, tr.buf, tr.pos, tr.end = nil, nil, 0, 0
	}()
	m := &tr.blk.model
	var vals []interp.Val
	var obs []interp.LCDObs
	for {
		if tr.end-tr.pos < maxRecordHead {
			tr.ensure(maxRecordHead)
		}
		if tr.pos == tr.end {
			return tr.bad("trace (missing end record)", errShort)
		}
		hdr := tr.buf[tr.pos]
		tr.pos++
		field, op := byte(memTicks), byte(0) // op 0: a load or store
		if hdr&recMem == 0 {
			field, op = opTicks, hdr>>4
			if op < opEnter || op > opNext {
				return fmt.Errorf("%w: unknown opcode %#x", errTrace, hdr)
			}
		}
		n := int64(hdr & field)
		if n == int64(field) {
			u, err := tr.uvarint()
			if err != nil {
				return tr.bad("tick count", err)
			}
			n += int64(u)
		}
		if n != 0 {
			tr.ticks += n
			h.Tick(n)
		}
		switch op {
		case 0:
			var addr int64
			s := m.slot()
			if hdr&recPredicted == 0 {
				d, err := tr.uvarint()
				if err != nil {
					return tr.bad("memory record", err)
				}
				addr = tr.last + unzigzag(d)
			} else if s != nil {
				addr = s.addr + s.stride
			} else {
				return fmt.Errorf("%w: predicted address in record %#x with no address slot (loop depth %d)", errTrace, hdr, m.depth)
			}
			if s != nil {
				s.addr, s.stride = addr, addr-s.addr
			}
			tr.last = addr
			if hdr&recStore != 0 {
				h.Store(addr)
			} else {
				h.Load(addr)
			}
		case opEnter:
			lm, sp, k, err := tr.loopHead()
			if err != nil {
				return tr.bad("enter", err)
			}
			vals = vals[:0]
			for i := range k {
				v, err := tr.val(lm.Observed[i].Ty.Kind())
				if err != nil {
					return tr.bad("enter value", err)
				}
				vals = append(vals, v)
			}
			m.enter(lm)
			h.EnterLoop(lm, sp, vals)
		case opIter:
			lm, sp, k, err := tr.loopHead()
			if err != nil {
				return tr.bad("iter", err)
			}
			m.iter()
			if obs, err = tr.observations(lm, k, obs); err != nil {
				return err
			}
			h.IterLoop(lm, sp, obs)
		case opNext:
			lm := m.innermost()
			if lm == nil {
				return fmt.Errorf("%w: next record %#x with no modelled live loop (loop depth %d)", errTrace, hdr, m.depth)
			}
			m.iter()
			var err error
			if obs, err = tr.observations(lm, len(lm.Observed), obs); err != nil {
				return err
			}
			h.IterLoop(lm, tr.sp, obs)
		case opExit:
			lm, err := tr.meta()
			if err != nil {
				return tr.bad("exit", err)
			}
			m.exit()
			h.ExitLoop(lm)
		case opEnd:
			want, err := tr.uvarint()
			if err != nil {
				return tr.bad("end record", err)
			}
			if int64(want) != tr.ticks {
				return fmt.Errorf("%w: tick checksum mismatch: replayed %d, recorded %d",
					errTrace, tr.ticks, want)
			}
			return nil
		}
	}
}

// ReplayTrace replays one recorded trace under one configuration and
// returns a report bit-identical to the Run that recorded it. The budgets
// in opts are not consulted: they were enforced when the trace was
// recorded.
func ReplayTrace(name string, info *analysis.ModuleInfo, cfg Config, opts RunOptions, r io.Reader) (*Report, error) {
	reps, err := ReplayTraceMulti(name, info, []Config{cfg}, opts, r)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// ReplayTraceMulti decodes a trace once and evaluates every configuration
// against it — the replay-side equivalent of MultiRun, always on one
// worker and never recording opts.Trace. Every configuration is validated
// before the trace header is read. When the configurations coalesce into
// one engine class, the decoder feeds that engine's per-event hooks, as
// Run does; otherwise decoded events feed the sealed-chunk producer, the
// run tracker finds each chunk's conflict facts, and every chunk replays
// inline into each class.
func ReplayTraceMulti(name string, info *analysis.ModuleInfo, cfgs []Config, opts RunOptions, r io.Reader) ([]*Report, error) {
	opts.Parallelism, opts.Trace = 1, nil
	return evaluate(info, name, cfgs, opts, func(h interp.Hooks) error {
		tr, err := NewTraceReader(r, info)
		if err != nil {
			return err
		}
		return tr.Replay(h)
	})
}
