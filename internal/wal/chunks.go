package wal

// Chunked checksummed files: the same length+CRC32C framing as journal
// records, applied per chunk to a whole file. The trace store writes
// .lptrace payloads this way so bit-rot anywhere in a file is detected
// on read (and by the scrubber) instead of surfacing as a garbled
// replay.
//
// A payload arrives as a list of blocks (a trace as its writer flushed
// it), and no step joins them. WriteChunked writes each frame's bytes
// straight from the blocks it spans, so the file is the same whatever
// the block sizes. ReadChunked reads the frames' payloads back to back
// into one buffer of the file's size, and VerifyChunked checks every
// frame through a small read window and keeps no payload at all.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	chunkMagic = "lpchnk1\n"
	// DefaultChunkSize is the per-chunk payload size WriteChunked uses
	// when size <= 0.
	DefaultChunkSize = 64 << 10
	// scanWindow is the read buffer of ReadChunked and VerifyChunked:
	// all a verification holds of a file at once.
	scanWindow = 4 << 10
)

// ErrCorruptChunk reports a chunked file that failed validation.
type ErrCorruptChunk struct {
	Path  string
	Chunk int
	Cause string
}

func (e *ErrCorruptChunk) Error() string {
	return fmt.Sprintf("wal: %s: corrupt chunk %d: %s", e.Path, e.Chunk, e.Cause)
}

// WriteChunked writes the concatenation of blocks to path as a chunked
// checksummed file, atomically (temp file + fsync + rename). Every frame
// but the last carries chunkSize payload bytes, wherever the block
// boundaries fall, and is written from the blocks it spans without
// copying them.
func WriteChunked(path string, blocks [][]byte, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return writeFileSync(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, chunkMagic); err != nil {
			return err
		}
		var hdr [headerSize]byte
		next := BlockReader{blocks: blocks}
		for {
			// Checksum the frame's pieces, then write its header and
			// the same pieces again.
			start, n, crc := next, 0, uint32(0)
			for n < chunkSize {
				p := next.take(chunkSize - n)
				if p == nil {
					break
				}
				n += len(p)
				crc = crc32.Update(crc, castagnoli, p)
			}
			if n == 0 {
				return nil
			}
			binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
			binary.LittleEndian.PutUint32(hdr[4:], crc)
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			for n > 0 {
				p := start.take(n)
				if _, err := w.Write(p); err != nil {
					return err
				}
				n -= len(p)
			}
		}
	})
}

// BlockReader reads a list of blocks in order, as one stream. It moves
// only its own cursor and never writes to the blocks or to the list, so
// any number of readers can read one list at once. (net.Buffers cannot:
// its Read reslices the list's first element in place.)
type BlockReader struct {
	blocks [][]byte
	off    int // read position in blocks[0]
}

// NewBlockReader returns a reader of the concatenation of blocks.
func NewBlockReader(blocks [][]byte) *BlockReader { return &BlockReader{blocks: blocks} }

// Read implements io.Reader.
func (r *BlockReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		b := r.take(len(p) - n)
		if b == nil {
			if n == 0 {
				return 0, io.EOF
			}
			break
		}
		n += copy(p[n:], b)
	}
	return n, nil
}

// take returns the next bytes at the cursor, at most n and all from one
// block, and moves past them; nil once the blocks are exhausted.
func (r *BlockReader) take(n int) []byte {
	for len(r.blocks) > 0 && r.off == len(r.blocks[0]) {
		r.blocks, r.off = r.blocks[1:], 0
	}
	if len(r.blocks) == 0 {
		return nil
	}
	p := r.blocks[0][r.off:]
	p = p[:min(n, len(p))]
	r.off += len(p)
	return p
}

// ReadChunked reads and validates a chunked file, returning the
// concatenated payload in one buffer of at most the file's size. Any
// framing or checksum violation returns an *ErrCorruptChunk — unlike a
// journal, a data file has no legal torn tail, so a partial file is
// corrupt, not short.
func ReadChunked(path string) ([]byte, error) {
	return scanChunked(path, true)
}

// VerifyChunked validates a chunked file exactly as ReadChunked does,
// reading it through a scanWindow-byte buffer and keeping no payload.
func VerifyChunked(path string) error {
	_, err := scanChunked(path, false)
	return err
}

// scanChunked reads the chunked file at path frame by frame, checking
// each frame's length against what is left of the file and its payload
// against its CRC. With keep it returns the payloads back to back;
// without, it returns nil.
func scanChunked(path string, keep bool) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	corrupt := func(i int, cause string) error {
		return &ErrCorruptChunk{Path: path, Chunk: i, Cause: cause}
	}
	// A read that ends early means the file shrank after the Stat: it is
	// truncated like one whose frames claim more than it holds.
	readErr := func(err error, i int, cause string) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return corrupt(i, cause)
		}
		return fmt.Errorf("wal: %s: %w", path, err)
	}
	left := st.Size() // bytes of the file not yet read
	r := bufio.NewReaderSize(f, int(min(left, scanWindow)))
	var magic [len(chunkMagic)]byte
	if left < int64(len(magic)) {
		return nil, corrupt(0, "bad magic")
	}
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, readErr(err, 0, "bad magic")
	}
	if string(magic[:]) != chunkMagic {
		return nil, corrupt(0, "bad magic")
	}
	left -= int64(len(magic))
	var out []byte
	if keep {
		// The payloads are the file less its framing: no frame can
		// make this buffer grow.
		out = make([]byte, 0, left)
	}
	var hdr [headerSize]byte
	for i := 0; left > 0; i++ {
		if left < headerSize {
			return nil, corrupt(i, "truncated header")
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, readErr(err, i, "truncated header")
		}
		left -= headerSize
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecord || int64(length) > left {
			return nil, corrupt(i, "truncated payload")
		}
		left -= int64(length)
		var crc uint32
		if keep {
			p := out[len(out) : len(out)+int(length)]
			if _, err := io.ReadFull(r, p); err != nil {
				return nil, readErr(err, i, "truncated payload")
			}
			crc = crc32.Checksum(p, castagnoli)
			out = out[:len(out)+len(p)]
		} else {
			for n := int(length); n > 0; {
				p, err := r.Peek(min(n, r.Size()))
				if err != nil {
					return nil, readErr(err, i, "truncated payload")
				}
				crc = crc32.Update(crc, castagnoli, p)
				r.Discard(len(p))
				n -= len(p)
			}
		}
		if crc != want {
			return nil, corrupt(i, "checksum mismatch")
		}
	}
	return out, nil
}
