package core

// Binary event traces: the instrumentation stream of one execution
// (paper §III-A) serialized to a compact varint format, so a program
// recorded once can be replayed into any future configuration without
// re-executing. Budgets (steps, heap, wall-clock) are enforced at record
// time by the interpreter; replay consumes the recorded stream and cannot
// fail on them — only successful executions produce complete traces.
//
// Layout, version 2 (integers are uvarints; zz marks a zigzag-coded
// signed delta):
//
//	magic "LPTr", version byte 2
//	uvarint len(module name), name bytes
//	uvarint loop count (must match the replaying module's analysis)
//	records, each opening with one header byte:
//	  1sTTTTTT  load (s=0) or store (s=1): zz address delta from the
//	            previous load/store address
//	  0oooTTTT  o=1 enter: uvarint seq, zz sp delta, uvarint k, k × val
//	            o=2 iter:  uvarint seq, zz sp delta, uvarint k,
//	                       k × (val, defTick)
//	            o=3 exit:  uvarint seq
//	            o=4 end:   uvarint total ticks (truncation + corruption
//	                       check); any other o is corrupt
//
// Ticks have no record of their own: the T field carries the ticks
// accumulated since the previous record, delivered before the record's
// event, and its top value (63 in memory records, 15 in the others)
// means "that many plus a uvarint following the header byte". The sp
// delta is from the previous enter/iter record's stack pointer (0 before
// the first). A defTick is 0 for -1 (no in-loop producer), otherwise
// 1 + zz(clock − defTick), where clock is the tick total through this
// record. A val is a kind byte, then 8 bytes of little-endian IEEE bits
// for KFloat and a zz integer otherwise.
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

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// traceMagic opens every trace, followed by traceVersion.
var traceMagic = [4]byte{'L', 'P', 'T', 'r'}

// traceVersion is the current format version.
const traceVersion = 2

// Record header bits.
const (
	recMem   byte = 0x80 // load/store record
	recStore byte = 0x40 // the memory record is a store
	memTicks      = 0x3f // memory records' pending-tick field and escape value
	opTicks       = 0x0f // the other records' pending-tick field and escape value
)

// Opcodes of the records without recMem, in header bits 4-6.
const (
	opEnter byte = 1 + iota
	opIter
	opExit
	opEnd
)

// Encoding bounds: a record's fixed fields (header, tick escape and three
// uvarints) and one payload value plus its defTick.
const (
	maxRecordHead = 1 + 4*binary.MaxVarintLen64
	maxRecordVal  = 1 + 2*binary.MaxVarintLen64
)

// maxTraceName bounds the module name a trace header may claim.
const maxTraceName = 1 << 20

// traceBlock is the size of the writer's output buffer and the reader's
// input block.
const traceBlock = 1 << 16

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

// TraceWriter serializes the instrumentation event stream. It implements
// interp.Hooks and copies event payloads immediately (by encoding them),
// so it is safe to wire directly to the interpreter or behind the fan-out
// tee. Errors from the underlying writer are sticky and surface at Close.
type TraceWriter struct {
	w       io.Writer
	info    *analysis.ModuleInfo
	err     error
	buf     []byte // encoded records not yet written to w
	last    int64  // previous load/store address (delta base)
	sp      int64  // previous enter/iter stack pointer (delta base)
	pending int64  // ticks not yet carried by a record header
	ticks   int64  // Σ tick n: the defTick base, and the end-record checksum
}

// NewTraceWriter starts a trace of one execution of info's module. The
// header is written with the first full block or at Close.
func NewTraceWriter(w io.Writer, info *analysis.ModuleInfo) *TraceWriter {
	tw := &TraceWriter{w: w, info: info, buf: make([]byte, 0, traceBlock)}
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

// val encodes one runtime value: kind byte, then either the IEEE bits
// (floats, fixed 8 bytes — random mantissas varint badly) or a zigzag
// varint of the integer payload.
func (tw *TraceWriter) val(v interp.Val) {
	tw.buf = append(tw.buf, byte(v.K))
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
		if tw.err == nil {
			tw.err = fmt.Errorf("core: trace: loop meta (seq %d) is not addressable in this module", lm.Seq)
		}
		return 0
	}
	return uint64(lm.Seq)
}

// loopHead appends the fields enter and iter records share.
func (tw *TraceWriter) loopHead(op byte, lm *analysis.LoopMeta, sp int64, k int) {
	seq := tw.seqOf(lm)
	tw.head(op<<4, opTicks)
	tw.uvarint(seq)
	tw.uvarint(zigzag(sp - tw.sp))
	tw.sp = sp
	tw.uvarint(uint64(k))
}

// Tick implements interp.Hooks: ticks only accumulate until the next
// record's header carries them.
func (tw *TraceWriter) Tick(n int64) {
	tw.pending += n
	tw.ticks += n
}

// EnterLoop implements interp.Hooks.
func (tw *TraceWriter) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	tw.loopHead(opEnter, lm, sp, len(init))
	for _, v := range init {
		tw.room(maxRecordVal)
		tw.val(v)
	}
}

// IterLoop implements interp.Hooks.
func (tw *TraceWriter) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	tw.loopHead(opIter, lm, sp, len(obs))
	for _, o := range obs {
		tw.room(maxRecordVal)
		tw.val(o.Val)
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
}

// mem appends one load or store record.
func (tw *TraceWriter) mem(tag byte, addr int64) {
	tw.head(tag, memTicks)
	tw.uvarint(zigzag(addr - tw.last))
	tw.last = addr
}

// Load implements interp.Hooks.
func (tw *TraceWriter) Load(addr int64) { tw.mem(recMem, addr) }

// Store implements interp.Hooks.
func (tw *TraceWriter) Store(addr int64) { tw.mem(recMem|recStore, addr) }

// Close writes the end record and flushes, returning the first error the
// trace hit. A trace without a successful Close is truncated and will be
// rejected at replay.
func (tw *TraceWriter) Close() error {
	tw.head(opEnd<<4, opTicks)
	tw.uvarint(uint64(tw.ticks))
	tw.flush()
	return tw.err
}

// traceBlocks recycles the reader's input blocks: a steady stream of
// replays decodes without allocating a fresh block each.
var traceBlocks = sync.Pool{New: func() any { return new([traceBlock]byte) }}

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
	blk      *[traceBlock]byte // from traceBlocks; nil once Replay returned it
	buf      []byte            // blk's bytes; [pos, end) is buffered input
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
	blk := traceBlocks.Get().(*[traceBlock]byte)
	tr := &TraceReader{r: r, blk: blk, buf: blk[:], metas: info.Loops}
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

// val decodes one runtime value.
func (tr *TraceReader) val() (interp.Val, error) {
	if tr.end-tr.pos < maxRecordVal {
		tr.ensure(maxRecordVal)
	}
	if tr.pos == tr.end {
		return interp.Val{}, errShort
	}
	v := interp.Val{K: ir.Kind(tr.buf[tr.pos])}
	tr.pos++
	if v.K > ir.KPtr {
		return interp.Val{}, fmt.Errorf("bad value kind %d", v.K)
	}
	if v.K == ir.KFloat {
		if tr.end-tr.pos < 8 {
			return interp.Val{}, errShort
		}
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(tr.buf[tr.pos:]))
		tr.pos += 8
		return v, nil
	}
	u, err := tr.uvarint()
	v.I = unzigzag(u)
	return v, err
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
			if op < opEnter || op > opEnd {
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
			d, err := tr.uvarint()
			if err != nil {
				return tr.bad("memory record", err)
			}
			tr.last += unzigzag(d)
			if hdr&recStore != 0 {
				h.Store(tr.last)
			} else {
				h.Load(tr.last)
			}
		case opEnter:
			lm, sp, k, err := tr.loopHead()
			if err != nil {
				return tr.bad("enter", err)
			}
			vals = vals[:0]
			for range k {
				v, err := tr.val()
				if err != nil {
					return tr.bad("enter value", err)
				}
				vals = append(vals, v)
			}
			h.EnterLoop(lm, sp, vals)
		case opIter:
			lm, sp, k, err := tr.loopHead()
			if err != nil {
				return tr.bad("iter", err)
			}
			obs = obs[:0]
			for range k {
				v, err := tr.val()
				if err != nil {
					return tr.bad("observation", err)
				}
				c, err := tr.uvarint()
				if err != nil {
					return tr.bad("def tick", err)
				}
				dt := int64(-1)
				if c != 0 {
					dt = tr.ticks - unzigzag(c-1)
				}
				obs = append(obs, interp.LCDObs{Val: v, DefTick: dt})
			}
			h.IterLoop(lm, sp, obs)
		case opExit:
			lm, err := tr.meta()
			if err != nil {
				return tr.bad("exit", err)
			}
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
// Run does; otherwise decoded events feed the sealed-chunk producer and
// every chunk replays inline through the batched tracker path into each
// class.
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
