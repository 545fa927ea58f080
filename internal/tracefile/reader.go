package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"
)

// Reader provides random access to a trace file. It is backed by an
// io.ReaderAt, so a multi-gigabyte campaign is never loaded whole:
// chunks are fetched, checksummed and decoded on demand, and the chunk
// index narrows any time-window query to the chunks overlapping it.
//
// A reader opens successfully as long as the header parses and at
// least the intact prefix of the file can be indexed. A file that lost
// its footer (the writer died mid-campaign) is rescanned chunk by
// chunk; scanning stops at the first corrupt or truncated chunk and
// the reader serves everything before it, reporting the cut through
// Incomplete.
type Reader struct {
	src    io.ReaderAt
	size   int64
	flags  uint16
	schema []SeriesDef
	chunks []indexEntry

	// incomplete is non-nil when the index footer was missing or the
	// rescan hit corruption: the reader serves the intact prefix only.
	incomplete error
}

// OpenFile opens path for random access. The caller owns the returned
// closer (the underlying *os.File).
func OpenFile(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// NewBytesReader opens an in-memory trace image.
func NewBytesReader(b []byte) (*Reader, error) {
	return NewReader(bytes.NewReader(b), int64(len(b)))
}

// NewReader opens a trace from any random-access source of the given
// size.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	// The header (fixed part + schema) is read in two steps so only
	// schemaLen bytes of schema are fetched, not a guess.
	fixed := make([]byte, fixedHeaderLen)
	if size < int64(fixedHeaderLen) {
		return nil, fmt.Errorf("tracefile: file shorter than the %d-byte header", fixedHeaderLen)
	}
	if _, err := src.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	schemaLen := int64(binary.LittleEndian.Uint32(fixed[12:16]))
	if schemaLen > maxSchemaLen {
		return nil, fmt.Errorf("tracefile: schema block %d bytes exceeds the %d limit", schemaLen, maxSchemaLen)
	}
	hdrLen := int64(fixedHeaderLen) + schemaLen
	if hdrLen > size {
		return nil, fmt.Errorf("tracefile: truncated schema block (file %d bytes, header wants %d)", size, hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := src.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("tracefile: reading schema: %w", err)
	}
	flags, schema, _, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	r := &Reader{src: src, size: size, flags: flags, schema: schema}
	if ierr := r.loadIndex(hdrLen); ierr != nil {
		// No usable footer: fall back to scanning the chunk stream.
		// A scan stops at the first damage; Incomplete reports why the
		// file could not be served whole.
		serr := r.scan(hdrLen)
		switch {
		case serr != nil:
			r.incomplete = serr
		case ierr == errNoFooter:
			r.incomplete = fmt.Errorf("tracefile: missing index footer (recovered %d intact chunks by rescan)", len(r.chunks))
		default:
			r.incomplete = ierr
		}
	}
	return r, nil
}

// errNoFooter distinguishes "file simply ends after the chunks" from a
// present-but-corrupt footer.
var errNoFooter = fmt.Errorf("tracefile: no index footer")

// loadIndex reads and verifies the footer written by Writer.Close.
func (r *Reader) loadIndex(hdrLen int64) error {
	if r.size < hdrLen+int64(trailerLen) {
		return errNoFooter
	}
	tr := make([]byte, trailerLen)
	if _, err := r.src.ReadAt(tr, r.size-int64(trailerLen)); err != nil {
		return fmt.Errorf("tracefile: reading trailer: %w", err)
	}
	if string(tr[8:]) != trailerMagic {
		return errNoFooter
	}
	idxOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if idxOff < hdrLen || idxOff > r.size-int64(trailerLen) {
		return fmt.Errorf("tracefile: index offset %d outside the file", idxOff)
	}
	idx := make([]byte, r.size-int64(trailerLen)-idxOff)
	if _, err := r.src.ReadAt(idx, idxOff); err != nil {
		return fmt.Errorf("tracefile: reading index: %w", err)
	}
	if len(idx) < 8 || string(idx[:4]) != indexMagic {
		return fmt.Errorf("tracefile: bad index magic")
	}
	count := int64(binary.LittleEndian.Uint32(idx[4:8]))
	want := 8 + count*indexEntryLen + 4
	if int64(len(idx)) != want {
		return fmt.Errorf("tracefile: index block is %d bytes, %d entries want %d", len(idx), count, want)
	}
	body := idx[8 : len(idx)-4]
	crc := binary.LittleEndian.Uint32(idx[len(idx)-4:])
	if got := crc32.ChecksumIEEE(body); got != crc {
		return fmt.Errorf("tracefile: index CRC mismatch (stored %08x, computed %08x)", crc, got)
	}
	entries := make([]indexEntry, 0, count)
	for i := int64(0); i < count; i++ {
		e := body[i*indexEntryLen:]
		entries = append(entries, indexEntry{
			offset: int64(binary.LittleEndian.Uint64(e[0:8])),
			kind:   e[8],
			count:  binary.LittleEndian.Uint32(e[9:13]),
			minT:   int64(binary.LittleEndian.Uint64(e[13:21])),
			maxT:   int64(binary.LittleEndian.Uint64(e[21:29])),
		})
	}
	r.chunks = entries
	return nil
}

// scan rebuilds the chunk index by walking the chunk stream from the
// end of the header, verifying each chunk's CRC. It keeps every intact
// chunk before the first damage and returns a descriptive error for
// the damage itself (nil when the stream simply ends cleanly).
func (r *Reader) scan(hdrLen int64) error {
	r.chunks = r.chunks[:0]
	off := hdrLen
	hdr := make([]byte, chunkHeaderLen)
	for off < r.size {
		if r.size-off < int64(len(indexMagic)) {
			return fmt.Errorf("tracefile: %d trailing bytes at offset %d are not a chunk", r.size-off, off)
		}
		if _, err := r.src.ReadAt(hdr[:4], off); err != nil {
			return fmt.Errorf("tracefile: reading chunk magic at offset %d: %w", off, err)
		}
		if string(hdr[:4]) == indexMagic {
			// The chunk stream ended at a footer the trailer no longer
			// points to (e.g. the file was truncated mid-footer); the
			// chunks themselves are all accounted for.
			return nil
		}
		if string(hdr[:4]) != chunkMagic {
			return fmt.Errorf("tracefile: bad chunk magic %q at offset %d", hdr[:4], off)
		}
		if r.size-off < int64(chunkHeaderLen) {
			return fmt.Errorf("tracefile: truncated chunk header at offset %d", off)
		}
		if _, err := r.src.ReadAt(hdr, off); err != nil {
			return fmt.Errorf("tracefile: reading chunk header at offset %d: %w", off, err)
		}
		e, storedLen, err := parseChunkHeader(hdr, off)
		if err != nil {
			return err
		}
		if r.size-off-int64(chunkHeaderLen) < storedLen {
			return fmt.Errorf("tracefile: chunk at offset %d truncated (%d of %d payload bytes)",
				off, r.size-off-int64(chunkHeaderLen), storedLen)
		}
		// Verify the payload now: a scan is only trustworthy if the
		// chunks it indexes actually decode later.
		payload := make([]byte, storedLen)
		if _, err := r.src.ReadAt(payload, off+int64(chunkHeaderLen)); err != nil {
			return fmt.Errorf("tracefile: reading chunk payload at offset %d: %w", off, err)
		}
		stored := binary.LittleEndian.Uint32(hdr[44:48])
		if got := crc32.ChecksumIEEE(payload); got != stored {
			return fmt.Errorf("tracefile: chunk at offset %d CRC mismatch (stored %08x, computed %08x)", off, stored, got)
		}
		r.chunks = append(r.chunks, e)
		off += int64(chunkHeaderLen) + storedLen
	}
	return nil
}

// parseChunkHeader validates the fixed fields of one chunk header at
// the given offset and returns its index entry and stored length.
func parseChunkHeader(hdr []byte, off int64) (indexEntry, int64, error) {
	rawLen := binary.LittleEndian.Uint32(hdr[36:40])
	storedLen := binary.LittleEndian.Uint32(hdr[40:44])
	if rawLen > maxChunkRaw || storedLen > maxChunkRaw {
		return indexEntry{}, 0, fmt.Errorf("tracefile: chunk at offset %d declares %d/%d payload bytes, above the %d limit",
			off, storedLen, rawLen, maxChunkRaw)
	}
	if storedLen > rawLen {
		return indexEntry{}, 0, fmt.Errorf("tracefile: chunk at offset %d stores %d bytes for %d raw bytes", off, storedLen, rawLen)
	}
	return indexEntry{
		offset: off,
		kind:   hdr[4],
		count:  binary.LittleEndian.Uint32(hdr[32:36]),
		minT:   int64(binary.LittleEndian.Uint64(hdr[16:24])),
		maxT:   int64(binary.LittleEndian.Uint64(hdr[24:32])),
	}, int64(storedLen), nil
}

// Schema returns the declared series.
func (r *Reader) Schema() []SeriesDef { return r.schema }

// Compressed reports whether the file was written with compression
// enabled.
func (r *Reader) Compressed() bool { return r.flags&flagCompressed != 0 }

// NumChunks returns how many chunks the reader can serve.
func (r *Reader) NumChunks() int { return len(r.chunks) }

// Incomplete returns nil for a fully indexed file, or a descriptive
// error when the index footer was missing/damaged or the rescan
// stopped at corruption; the reader still serves every chunk before
// the damage.
func (r *Reader) Incomplete() error { return r.incomplete }

// Counts returns the total samples and events across the served
// chunks.
func (r *Reader) Counts() (samples, events uint64) {
	for _, c := range r.chunks {
		switch c.kind {
		case kindSamples:
			samples += uint64(c.count)
		case kindEvents:
			events += uint64(c.count)
		}
	}
	return samples, events
}

// TimeRange returns the earliest and latest record time across the
// served chunks, and false when the file has no records.
func (r *Reader) TimeRange() (from, to time.Duration, ok bool) {
	for _, c := range r.chunks {
		if c.count == 0 {
			continue
		}
		if !ok || time.Duration(c.minT) < from {
			from = time.Duration(c.minT)
		}
		if !ok || time.Duration(c.maxT) > to {
			to = time.Duration(c.maxT)
		}
		ok = true
	}
	return from, to, ok
}

// Window selects records by time. The zero value selects everything;
// From/To bound inclusively, with To == 0 meaning "no upper bound"
// when From is also their zero default — use Until for an explicit
// upper bound of zero.
type Window struct {
	From time.Duration
	To   time.Duration // 0 = unbounded
}

// contains reports whether t lies in the window.
func (w Window) contains(t int64) bool {
	if t < int64(w.From) {
		return false
	}
	return w.To == 0 || t <= int64(w.To)
}

// overlaps reports whether the chunk time range intersects the window.
func (w Window) overlaps(minT, maxT int64) bool {
	if maxT < int64(w.From) {
		return false
	}
	return w.To == 0 || minT <= int64(w.To)
}

// ErrStop, returned from a Samples or Events callback, ends the
// iteration early without an error.
var ErrStop = fmt.Errorf("tracefile: stop iteration")

// Samples streams every sample record in the window, in file order,
// fetching and decoding only the chunks whose time range overlaps it —
// the random-access path behind windowed reports and thermtrace cat.
// The callback may return ErrStop to end early.
func (r *Reader) Samples(win Window, fn func(s Sample) error) error {
	var dec decoder
	for _, c := range r.chunks {
		if c.kind != kindSamples || c.count == 0 || !win.overlaps(c.minT, c.maxT) {
			continue
		}
		if err := r.decodeChunk(c, &dec, func(series int, t int64, bits uint64) error {
			if !win.contains(t) {
				return nil
			}
			return fn(Sample{Series: series, T: time.Duration(t), V: math.Float64frombits(bits)})
		}, nil); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
	return nil
}

// Events streams every event record in the window, in file order. The
// callback may return ErrStop to end early.
func (r *Reader) Events(win Window, fn func(e Event) error) error {
	var dec decoder
	for _, c := range r.chunks {
		if c.kind != kindEvents || c.count == 0 || !win.overlaps(c.minT, c.maxT) {
			continue
		}
		if err := r.decodeChunk(c, &dec, nil, func(t int64, text string) error {
			if !win.contains(t) {
				return nil
			}
			return fn(Event{T: time.Duration(t), Text: text})
		}); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
	return nil
}

// decoder holds the reusable scratch buffers of chunk decoding.
type decoder struct {
	stored []byte
	raw    []byte
}

// decodeChunk fetches, checksums, decompresses and decodes one chunk,
// dispatching records to the sample or event callback.
func (r *Reader) decodeChunk(e indexEntry, dec *decoder,
	onSample func(series int, t int64, bits uint64) error,
	onEvent func(t int64, text string) error) error {

	hdr := make([]byte, chunkHeaderLen)
	if _, err := r.src.ReadAt(hdr, e.offset); err != nil {
		return fmt.Errorf("tracefile: reading chunk header at offset %d: %w", e.offset, err)
	}
	if string(hdr[:4]) != chunkMagic {
		return fmt.Errorf("tracefile: bad chunk magic %q at offset %d", hdr[:4], e.offset)
	}
	_, storedLen, err := parseChunkHeader(hdr, e.offset)
	if err != nil {
		return err
	}
	if e.offset+int64(chunkHeaderLen)+storedLen > r.size {
		return fmt.Errorf("tracefile: chunk at offset %d overruns the file", e.offset)
	}
	rawLen := binary.LittleEndian.Uint32(hdr[36:40])
	crc := binary.LittleEndian.Uint32(hdr[44:48])
	baseT := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	count := binary.LittleEndian.Uint32(hdr[32:36])
	compressed := hdr[5]&flagCompressed != 0

	if cap(dec.stored) < int(storedLen) {
		dec.stored = make([]byte, storedLen)
	}
	stored := dec.stored[:storedLen]
	if _, err := r.src.ReadAt(stored, e.offset+int64(chunkHeaderLen)); err != nil {
		return fmt.Errorf("tracefile: reading chunk payload at offset %d: %w", e.offset, err)
	}
	if got := crc32.ChecksumIEEE(stored); got != crc {
		return fmt.Errorf("tracefile: chunk at offset %d CRC mismatch (stored %08x, computed %08x)", e.offset, crc, got)
	}
	raw := stored
	if compressed {
		if cap(dec.raw) < int(rawLen) {
			dec.raw = make([]byte, rawLen)
		}
		raw = dec.raw[:rawLen]
		fr := flate.NewReader(bytes.NewReader(stored))
		if _, err := io.ReadFull(fr, raw); err != nil {
			return fmt.Errorf("tracefile: decompressing chunk at offset %d: %w", e.offset, err)
		}
		// A trailing byte would mean rawLen lied; one extra read tells.
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return fmt.Errorf("tracefile: chunk at offset %d decompresses past its declared %d bytes", e.offset, rawLen)
		}
		fr.Close()
	} else if int64(rawLen) != storedLen {
		return fmt.Errorf("tracefile: uncompressed chunk at offset %d declares raw %d != stored %d", e.offset, rawLen, storedLen)
	}

	switch hdr[4] {
	case kindSamples:
		if onSample == nil {
			return nil
		}
		return decodeSamples(raw, baseT, count, len(r.schema), e.offset, onSample)
	case kindEvents:
		if onEvent == nil {
			return nil
		}
		return decodeEvents(raw, baseT, count, e.offset, onEvent)
	default:
		// Unknown kind: written by a future revision; skip (the
		// forward-compat rule).
		return nil
	}
}

// decodeSamples decodes one sample chunk payload. Any malformed record
// returns a descriptive error; the decoder never panics on corrupt
// input.
func decodeSamples(raw []byte, baseT int64, count uint32, nSeries int, off int64,
	fn func(series int, t int64, bits uint64) error) error {
	prevBits := make([]uint64, nSeries)
	prevT := baseT
	for i := uint32(0); i < count; i++ {
		series, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("tracefile: chunk at offset %d: malformed series id in record %d", off, i)
		}
		raw = raw[n:]
		if series >= uint64(nSeries) {
			return fmt.Errorf("tracefile: chunk at offset %d: record %d names series %d of %d declared", off, i, series, nSeries)
		}
		du, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("tracefile: chunk at offset %d: malformed time delta in record %d", off, i)
		}
		raw = raw[n:]
		xor, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("tracefile: chunk at offset %d: malformed value in record %d", off, i)
		}
		raw = raw[n:]
		prevT += unzigzag(du)
		if i == 0 {
			prevT = baseT + unzigzag(du) // first delta is against the base time
		}
		bits := prevBits[series] ^ xor
		prevBits[series] = bits
		if err := fn(int(series), prevT, bits); err != nil {
			return err
		}
	}
	if len(raw) != 0 {
		return fmt.Errorf("tracefile: chunk at offset %d: %d trailing bytes after %d records", off, len(raw), count)
	}
	return nil
}

// decodeEvents decodes one event chunk payload.
func decodeEvents(raw []byte, baseT int64, count uint32, off int64,
	fn func(t int64, text string) error) error {
	prevT := baseT
	for i := uint32(0); i < count; i++ {
		du, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("tracefile: chunk at offset %d: malformed time delta in event %d", off, i)
		}
		raw = raw[n:]
		ln, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("tracefile: chunk at offset %d: malformed length in event %d", off, i)
		}
		raw = raw[n:]
		if ln > uint64(len(raw)) {
			return fmt.Errorf("tracefile: chunk at offset %d: event %d text overruns the chunk", off, i)
		}
		prevT += unzigzag(du)
		if i == 0 {
			prevT = baseT + unzigzag(du)
		}
		if err := fn(prevT, string(raw[:ln])); err != nil {
			return err
		}
		raw = raw[ln:]
	}
	if len(raw) != 0 {
		return fmt.Errorf("tracefile: chunk at offset %d: %d trailing bytes after %d events", off, len(raw), count)
	}
	return nil
}
