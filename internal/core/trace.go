package core

// Binary event traces: the instrumentation stream of one execution
// (paper §III-A) serialized to a compact varint format, so a program
// recorded once can be replayed into any future configuration without
// re-executing. Budgets (steps, heap, wall-clock) are enforced at record
// time by the interpreter; replay consumes the recorded stream and cannot
// fail on them — only successful executions produce complete traces.
//
// Layout (all integers varint unless noted):
//
//	magic "LPTr", version byte
//	uvarint len(module name), name bytes
//	uvarint loop count (must match the replaying module's analysis)
//	records:
//	  0x00 tick   uvarint n
//	  0x01 enter  uvarint seq, uvarint sp, uvarint k, k × val
//	  0x02 iter   uvarint seq, uvarint sp, uvarint k, k × (val, zigzag defTick)
//	  0x03 exit   uvarint seq
//	  0x04 load   zigzag delta from the previous load/store address
//	  0x05 store  zigzag delta from the previous load/store address
//	  0x06 end    uvarint total ticks (truncation + corruption check)
//	val: kind byte; KFloat → 8 bytes little-endian IEEE bits, else zigzag I
//
// Loops are addressed by their stable per-module Seq ordinal, so a trace
// is only meaningful against the module analysis that recorded it (the
// bench harness and the serve trace tier key traces by a source hash to
// guarantee that).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime/debug"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// traceMagic opens every trace, followed by traceVersion.
var traceMagic = [4]byte{'L', 'P', 'T', 'r'}

// traceVersion is the current format version.
const traceVersion = 1

// Trace opcodes.
const (
	opTick byte = iota
	opEnter
	opIter
	opExit
	opLoad
	opStore
	opEnd
)

// zigzag maps signed to unsigned so small-magnitude deltas stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// TraceWriter serializes the instrumentation event stream. It implements
// interp.Hooks and copies event payloads immediately (by encoding them),
// so it is safe to wire directly to the interpreter or behind the fan-out
// tee. Errors from the underlying writer are sticky and surface at Close.
type TraceWriter struct {
	w     *bufio.Writer
	info  *analysis.ModuleInfo
	err   error
	last  int64 // previous load/store address (delta base)
	ticks int64 // Σ tick n, written by Close as the end-record checksum
	buf   [2 * binary.MaxVarintLen64]byte
}

// NewTraceWriter starts a trace of one execution of info's module,
// writing the header immediately.
func NewTraceWriter(w io.Writer, info *analysis.ModuleInfo) *TraceWriter {
	tw := &TraceWriter{w: bufio.NewWriterSize(w, 1<<16), info: info}
	if _, err := tw.w.Write(traceMagic[:]); err != nil {
		tw.err = err
		return tw
	}
	tw.byte(traceVersion)
	name := info.Mod.Name
	tw.uvarint(uint64(len(name)))
	if tw.err == nil {
		_, tw.err = tw.w.WriteString(name)
	}
	tw.uvarint(uint64(len(info.Loops)))
	return tw
}

func (tw *TraceWriter) byte(b byte) {
	if tw.err == nil {
		tw.err = tw.w.WriteByte(b)
	}
}

func (tw *TraceWriter) uvarint(v uint64) {
	if tw.err != nil {
		return
	}
	n := binary.PutUvarint(tw.buf[:], v)
	_, tw.err = tw.w.Write(tw.buf[:n])
}

func (tw *TraceWriter) svarint(v int64) { tw.uvarint(zigzag(v)) }

// val encodes one runtime value: kind byte, then either the IEEE bits
// (floats, fixed 8 bytes — random mantissas varint badly) or a zigzag
// varint of the integer payload.
func (tw *TraceWriter) val(v interp.Val) {
	tw.byte(byte(v.K))
	if v.K == ir.KFloat {
		if tw.err == nil {
			binary.LittleEndian.PutUint64(tw.buf[:8], math.Float64bits(v.F))
			_, tw.err = tw.w.Write(tw.buf[:8])
		}
		return
	}
	tw.svarint(v.I)
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

// Tick implements interp.Hooks.
func (tw *TraceWriter) Tick(n int64) {
	tw.byte(opTick)
	tw.uvarint(uint64(n))
	tw.ticks += n
}

// EnterLoop implements interp.Hooks.
func (tw *TraceWriter) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	seq := tw.seqOf(lm)
	tw.byte(opEnter)
	tw.uvarint(seq)
	tw.uvarint(uint64(sp))
	tw.uvarint(uint64(len(init)))
	for _, v := range init {
		tw.val(v)
	}
}

// IterLoop implements interp.Hooks.
func (tw *TraceWriter) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	seq := tw.seqOf(lm)
	tw.byte(opIter)
	tw.uvarint(seq)
	tw.uvarint(uint64(sp))
	tw.uvarint(uint64(len(obs)))
	for _, o := range obs {
		tw.val(o.Val)
		tw.svarint(o.DefTick)
	}
}

// ExitLoop implements interp.Hooks.
func (tw *TraceWriter) ExitLoop(lm *analysis.LoopMeta) {
	seq := tw.seqOf(lm)
	tw.byte(opExit)
	tw.uvarint(seq)
}

// Load implements interp.Hooks.
func (tw *TraceWriter) Load(addr int64) {
	tw.byte(opLoad)
	tw.svarint(addr - tw.last)
	tw.last = addr
}

// Store implements interp.Hooks.
func (tw *TraceWriter) Store(addr int64) {
	tw.byte(opStore)
	tw.svarint(addr - tw.last)
	tw.last = addr
}

// Close writes the end record and flushes, returning the first error the
// trace hit. A trace without a successful Close is truncated and will be
// rejected at replay.
func (tw *TraceWriter) Close() error {
	tw.byte(opEnd)
	tw.uvarint(uint64(tw.ticks))
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// byteReader adapts any reader for varint decoding while keeping block
// reads for float payloads.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// TraceReader decodes a recorded trace and replays it into any
// interp.Hooks consumer — typically one or more Engines, which then
// produce Reports bit-identical to a live run.
type TraceReader struct {
	r     byteReader
	metas []*analysis.LoopMeta
	name  string
	last  int64
	ticks int64
}

// NewTraceReader validates the trace header against the module analysis
// that will consume the replay.
func NewTraceReader(r io.Reader, info *analysis.ModuleInfo) (*TraceReader, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	tr := &TraceReader{r: br, metas: info.Loops}
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: trace: reading header: %w", err)
	}
	if [4]byte(magic[:4]) != traceMagic {
		return nil, fmt.Errorf("core: trace: bad magic %q", magic[:4])
	}
	if magic[4] != traceVersion {
		return nil, fmt.Errorf("core: trace: unsupported version %d (want %d)", magic[4], traceVersion)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1<<20 {
		return nil, fmt.Errorf("core: trace: bad module name length (%v)", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("core: trace: reading module name: %w", err)
	}
	tr.name = string(name)
	loops, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: trace: reading loop count: %w", err)
	}
	if int(loops) != len(info.Loops) {
		return nil, fmt.Errorf("core: trace: recorded against %d loops, module has %d (stale trace?)",
			loops, len(info.Loops))
	}
	return tr, nil
}

// ModuleName returns the module name recorded in the header.
func (tr *TraceReader) ModuleName() string { return tr.name }

func (tr *TraceReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(tr.r)
}

func (tr *TraceReader) svarint() (int64, error) {
	u, err := binary.ReadUvarint(tr.r)
	return unzigzag(u), err
}

// val decodes one runtime value.
func (tr *TraceReader) val() (interp.Val, error) {
	k, err := tr.r.ReadByte()
	if err != nil {
		return interp.Val{}, err
	}
	if ir.Kind(k) > ir.KPtr {
		return interp.Val{}, fmt.Errorf("core: trace: bad value kind %d", k)
	}
	v := interp.Val{K: ir.Kind(k)}
	if v.K == ir.KFloat {
		var bits [8]byte
		if _, err := io.ReadFull(tr.r, bits[:]); err != nil {
			return interp.Val{}, err
		}
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		return v, nil
	}
	v.I, err = tr.svarint()
	return v, err
}

// meta resolves a loop ordinal.
func (tr *TraceReader) meta() (*analysis.LoopMeta, error) {
	seq, err := tr.uvarint()
	if err != nil {
		return nil, err
	}
	if seq >= uint64(len(tr.metas)) {
		return nil, fmt.Errorf("core: trace: loop ordinal %d out of range (module has %d)", seq, len(tr.metas))
	}
	return tr.metas[seq], nil
}

// Replay streams every recorded event into h, in order. It fails on a
// truncated or corrupt trace; budgets were enforced at record time, so a
// complete trace always replays to completion. Scratch slices passed to h
// are reused across events, exactly like a live interpreter.
func (tr *TraceReader) Replay(h interp.Hooks) error {
	var vals []interp.Val
	var obs []interp.LCDObs
	for {
		op, err := tr.r.ReadByte()
		if err != nil {
			return fmt.Errorf("core: trace: truncated (missing end record): %w", err)
		}
		switch op {
		case opTick:
			n, err := tr.uvarint()
			if err != nil {
				return fmt.Errorf("core: trace: truncated tick: %w", err)
			}
			tr.ticks += int64(n)
			h.Tick(int64(n))
		case opEnter:
			lm, err := tr.meta()
			if err != nil {
				return err
			}
			sp, err := tr.uvarint()
			if err != nil {
				return fmt.Errorf("core: trace: truncated enter: %w", err)
			}
			k, err := tr.uvarint()
			if err != nil || k > uint64(len(lm.Observed)) {
				return fmt.Errorf("core: trace: bad enter payload count %d for %s (%v)", k, lm.ID(), err)
			}
			vals = vals[:0]
			for i := uint64(0); i < k; i++ {
				v, err := tr.val()
				if err != nil {
					return fmt.Errorf("core: trace: truncated enter value: %w", err)
				}
				vals = append(vals, v)
			}
			h.EnterLoop(lm, int64(sp), vals)
		case opIter:
			lm, err := tr.meta()
			if err != nil {
				return err
			}
			sp, err := tr.uvarint()
			if err != nil {
				return fmt.Errorf("core: trace: truncated iter: %w", err)
			}
			k, err := tr.uvarint()
			if err != nil || k > uint64(len(lm.Observed)) {
				return fmt.Errorf("core: trace: bad iter payload count %d for %s (%v)", k, lm.ID(), err)
			}
			obs = obs[:0]
			for i := uint64(0); i < k; i++ {
				v, err := tr.val()
				if err != nil {
					return fmt.Errorf("core: trace: truncated observation: %w", err)
				}
				dt, err := tr.svarint()
				if err != nil {
					return fmt.Errorf("core: trace: truncated def tick: %w", err)
				}
				obs = append(obs, interp.LCDObs{Val: v, DefTick: dt})
			}
			h.IterLoop(lm, int64(sp), obs)
		case opExit:
			lm, err := tr.meta()
			if err != nil {
				return err
			}
			h.ExitLoop(lm)
		case opLoad:
			d, err := tr.svarint()
			if err != nil {
				return fmt.Errorf("core: trace: truncated load: %w", err)
			}
			tr.last += d
			h.Load(tr.last)
		case opStore:
			d, err := tr.svarint()
			if err != nil {
				return fmt.Errorf("core: trace: truncated store: %w", err)
			}
			tr.last += d
			h.Store(tr.last)
		case opEnd:
			want, err := tr.uvarint()
			if err != nil {
				return fmt.Errorf("core: trace: truncated end record: %w", err)
			}
			if int64(want) != tr.ticks {
				return fmt.Errorf("core: trace: tick checksum mismatch: replayed %d, recorded %d",
					tr.ticks, want)
			}
			return nil
		default:
			return fmt.Errorf("core: trace: unknown opcode %#x", op)
		}
	}
}

// ReplayTrace replays one recorded trace under one configuration and
// returns a report bit-identical to the Run that recorded it. Only
// opts.Tracker is consulted: resource budgets were enforced when the
// trace was recorded.
func ReplayTrace(name string, info *analysis.ModuleInfo, cfg Config, opts RunOptions, r io.Reader) (*Report, error) {
	reps, err := ReplayTraceMulti(name, info, []Config{cfg}, opts, r)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// ReplayTraceMulti decodes a trace once and evaluates every configuration
// against it — the replay-side equivalent of MultiRun. Decoded events
// feed the same sealed-chunk producer, and every chunk replays inline
// through the batched tracker path: replay always runs one worker.
func ReplayTraceMulti(name string, info *analysis.ModuleInfo, cfgs []Config, opts RunOptions, r io.Reader) (reps []*Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			reps, err = nil, fmt.Errorf("core: %s: %w", name,
				&PanicError{Val: p, Stack: string(debug.Stack())})
		}
	}()
	set, err := prepareEngines(info, cfgs, opts.Tracker)
	if err != nil {
		return nil, err
	}
	tr, err := NewTraceReader(r, info)
	if err != nil {
		return nil, err
	}
	tee := inlineTee(set.engines)
	if err := tr.Replay(tee); err != nil {
		return nil, err
	}
	tee.finish()
	return set.reports(cfgs, name), nil
}
