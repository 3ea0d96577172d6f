package core

// Binary serialization for the supernodal factor. A factor computed once
// for a large graph (e.g. a road network) can be written to disk and
// later restored cheaply for query serving, without the graph, the
// ordering pipeline, or the partitioner — the checkpoint that makes the
// expensive factorization a durable, recoverable artifact.
//
// Format v4 (little-endian):
//
//	magic "SFWF", u32 version
//	-- checksummed body starts here --
//	u8 semiring id (0 = min-plus, 1 = max-min)
//	u64 factor generation, u64 graph digest
//	u64 overlay count, overlay: count × (u64 u, u64 v, f64 w)
//	u64 n, u64 #supernodes
//	perm:  n × u64
//	per supernode: u64 lo, hi, subLo, parent+1
//	per supernode: diag (s×s f64), up (s×anc f64)
//	-- checksummed body ends here --
//	u64 CRC64/ECMA of the body
//
// v4 stores the one triangle the factor keeps. v3 is the same layout
// with a third per-supernode payload, down (anc×s f64) = upᵀ, which the
// reader checksums and discards. v3 extended v2 with checkpoint
// metadata inside the checksummed body: the live-update generation the
// factor had when snapshotted, a digest of the base graph it was
// factored from (so a worker never warm-boots a checkpoint for a
// different graph), and the edge-weight overlay — the edges whose
// current weight differs from the base graph — which reseeds a
// FactorUpdater so replayed journal batches classify
// decreases/increases against the right weights. v2 files (no meta
// block, down stored) still load, at generation 0 with an empty
// overlay.
//
// Matrix dimensions are reconstructed from the supernode structure, so
// only raw payloads are stored. The trailing checksum covers every body
// byte: a truncated file fails with an io error before the trailer is
// reached, and a bit flip anywhere in the body fails the CRC compare —
// either way ReadFactor rejects the checkpoint instead of serving
// corrupt distances.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/semiring"
	"repro/internal/symbolic"
)

const factorMagic = "SFWF"
const (
	factorVersionV2 = 2
	factorVersionV3 = 3
	factorVersion   = 4
)

// maxOverlayEdges caps the overlay so a crafted count field cannot
// drive a huge allocation before the checksum is verified.
const maxOverlayEdges = 1 << 26

// CheckpointMeta is the recovery metadata (v3 and later) embedded (checksummed)
// in a factor checkpoint.
type CheckpointMeta struct {
	// Generation is the live-update generation of the snapshotted
	// factor; boot generation is 1, so 0 means "legacy v2 checkpoint,
	// generation unknown".
	Generation uint64
	// GraphDigest identifies the base graph (GraphDigest of the catalog
	// graph the factor was built from). Validate rejects a checkpoint
	// whose digest does not match the graph being served.
	GraphDigest uint64
	// Overlay lists edges whose absolute weight differs from the base
	// graph after the updates baked into the factor — the state needed
	// to reseed a FactorUpdater on warm boot.
	Overlay []EdgeDelta
}

// Validate checks the meta block against the graph a worker intends to
// serve: the digest must match and a meta-bearing checkpoint must
// carry a live generation.
func (m CheckpointMeta) Validate(wantDigest uint64) error {
	if m.GraphDigest != wantDigest {
		return fmt.Errorf("core: checkpoint is for a different graph (digest %016x, want %016x)", m.GraphDigest, wantDigest)
	}
	if m.Generation == 0 {
		return fmt.Errorf("core: checkpoint has no factor generation (legacy v2 file?)")
	}
	return nil
}

// GraphDigest fingerprints a graph for checkpoint validation: CRC64
// over the vertex count and the sorted undirected edge list (weights
// bit-exact). Two graphs with the same digest are the same base for
// update-replay purposes.
func GraphDigest(g *graph.Graph) uint64 {
	edges := g.Edges()
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].U != edges[b].U {
			return edges[a].U < edges[b].U
		}
		return edges[a].V < edges[b].V
	})
	h := crc64.New(factorCRCTable)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.N))
	h.Write(b[:])
	for _, e := range edges {
		binary.LittleEndian.PutUint64(b[:], uint64(e.U))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(e.V))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.W))
		h.Write(b[:])
	}
	return h.Sum64()
}

// factorCRCTable is the CRC64 polynomial used by the checkpoint trailer.
var factorCRCTable = crc64.MakeTable(crc64.ECMA)

func semiringID(K *semiring.Kernels) (uint8, error) {
	switch K {
	case semiring.MinPlusKernels:
		return 0, nil
	case semiring.MaxMinKernels:
		return 1, nil
	}
	return 0, fmt.Errorf("core: cannot serialize custom semiring %q", K.Name)
}

func semiringByID(id uint8) (*semiring.Kernels, error) {
	switch id {
	case 0:
		return semiring.MinPlusKernels, nil
	case 1:
		return semiring.MaxMinKernels, nil
	}
	return nil, fmt.Errorf("core: unknown semiring id %d", id)
}

// WriteTo serializes the factor with a trailing CRC64 checksum and an
// empty meta block (generation/digest zero). It implements
// io.WriterTo; durable serving paths use WriteFactorMeta instead.
func (f *Factor) WriteTo(w io.Writer) (int64, error) {
	return WriteFactorMeta(w, f, CheckpointMeta{})
}

// WriteFactorMeta serializes the factor in the v4 format with the
// given recovery metadata. The "core.factorio.write" failpoint sits
// under the buffering so chaos tests can tear checkpoints mid-write.
func WriteFactorMeta(w io.Writer, f *Factor, meta CheckpointMeta) (int64, error) {
	bw := bufio.NewWriterSize(fault.Writer("core.factorio.write", w), 1<<20)
	cw := &countWriter{w: bw}
	sid, err := semiringID(f.K)
	if err != nil {
		return 0, err
	}
	if _, err := cw.Write([]byte(factorMagic)); err != nil {
		return cw.n, err
	}
	if err := writeU32(cw, factorVersion); err != nil {
		return cw.n, err
	}
	// Everything after the 8-byte header is checksummed: tee body writes
	// into the CRC as they stream out.
	h := crc64.New(factorCRCTable)
	hw := io.MultiWriter(cw, h)
	if _, err := hw.Write([]byte{sid}); err != nil {
		return cw.n, err
	}
	if err := writeU64s(hw, meta.Generation, meta.GraphDigest, uint64(len(meta.Overlay))); err != nil {
		return cw.n, err
	}
	for _, d := range meta.Overlay {
		if err := writeU64s(hw, uint64(d.U), uint64(d.V), math.Float64bits(d.W)); err != nil {
			return cw.n, err
		}
	}
	ns := f.sn.NumSupernodes()
	if err := writeU64s(hw, uint64(f.n), uint64(ns)); err != nil {
		return cw.n, err
	}
	for _, p := range f.perm {
		if err := writeU64s(hw, uint64(p)); err != nil {
			return cw.n, err
		}
	}
	for k := 0; k < ns; k++ {
		r := f.sn.Ranges[k]
		if err := writeU64s(hw, uint64(r.Lo), uint64(r.Hi), uint64(f.sn.SubLo[k]), uint64(f.sn.Parent[k]+1)); err != nil {
			return cw.n, err
		}
	}
	for k := 0; k < ns; k++ {
		for _, m := range []semiring.Mat{f.diag[k], f.up[k]} {
			if err := writeFloats(hw, m.Data); err != nil {
				return cw.n, err
			}
		}
	}
	// Trailer: the body checksum itself, outside the checksummed range.
	if err := writeU64s(cw, h.Sum64()); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFactor deserializes a factor written by WriteTo, verifying the
// trailing checksum: truncated or bit-flipped checkpoints are rejected
// with an error rather than restored into a silently corrupt factor.
// Recovery metadata is discarded; durable paths use ReadFactorMeta.
func ReadFactor(r io.Reader) (*Factor, error) {
	f, _, err := ReadFactorMeta(r)
	return f, err
}

// ReadFactorMeta deserializes a factor plus its recovery metadata.
// The current v4 format and legacy v3 and v2 files are accepted; the
// legacy down payloads are checksummed and dropped. A v2 file yields a
// zero CheckpointMeta (generation 0, no overlay), which callers treat as
// "pre-durability checkpoint".
func ReadFactorMeta(r io.Reader) (*Factor, CheckpointMeta, error) {
	var meta CheckpointMeta
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, meta, err
	}
	if string(head) != factorMagic {
		return nil, meta, fmt.Errorf("core: not a factor file (magic %q)", head)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, meta, err
	}
	if ver < factorVersionV2 || ver > factorVersion {
		return nil, meta, fmt.Errorf("core: unsupported factor version %d (this build reads v%d to v%d)", ver, factorVersionV2, factorVersion)
	}
	// Mirror the writer: every body byte flows through the CRC so the
	// trailer can be verified once parsing succeeds.
	h := crc64.New(factorCRCTable)
	hr := io.TeeReader(br, h)
	sidBuf := make([]byte, 1)
	if _, err := io.ReadFull(hr, sidBuf); err != nil {
		return nil, meta, err
	}
	K, err := semiringByID(sidBuf[0])
	if err != nil {
		return nil, meta, err
	}
	if ver >= factorVersionV3 {
		gen, err1 := readU64(hr)
		dig, err2 := readU64(hr)
		cnt, err3 := readU64(hr)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, meta, fmt.Errorf("core: truncated checkpoint meta block")
		}
		if cnt > maxOverlayEdges {
			return nil, meta, fmt.Errorf("core: corrupt checkpoint meta (overlay count %d)", cnt)
		}
		meta.Generation, meta.GraphDigest = gen, dig
		if cnt > 0 {
			meta.Overlay = make([]EdgeDelta, cnt)
			for i := range meta.Overlay {
				u, err1 := readU64(hr)
				v, err2 := readU64(hr)
				wb, err3 := readU64(hr)
				if err1 != nil || err2 != nil || err3 != nil {
					return nil, meta, fmt.Errorf("core: truncated checkpoint overlay")
				}
				if u > 1<<24 || v > 1<<24 {
					return nil, meta, fmt.Errorf("core: corrupt checkpoint overlay edge (%d,%d)", u, v)
				}
				meta.Overlay[i] = EdgeDelta{U: int(u), V: int(v), W: math.Float64frombits(wb)}
			}
		}
	}
	n64, err := readU64(hr)
	if err != nil {
		return nil, meta, err
	}
	ns64, err := readU64(hr)
	if err != nil {
		return nil, meta, err
	}
	n, ns := int(n64), int(ns64)
	// The 2^24 cap is far above any graph this library can solve (the
	// factor of a 16M-vertex graph would not fit in memory anyway) and
	// stops crafted headers from driving huge allocations.
	if n < 0 || ns < 0 || ns > n || n > 1<<24 {
		return nil, meta, fmt.Errorf("core: corrupt factor header (n=%d, ns=%d)", n, ns)
	}
	perm := make([]int, n)
	for i := range perm {
		v, err := readU64(hr)
		if err != nil {
			return nil, meta, err
		}
		perm[i] = int(v)
	}
	if !graph.IsPermutation(perm) {
		return nil, meta, fmt.Errorf("core: corrupt factor permutation")
	}
	ranges := make([]symbolic.Range, ns)
	parent := make([]int, ns)
	subLo := make([]int, ns)
	for k := 0; k < ns; k++ {
		lo, err1 := readU64(hr)
		hi, err2 := readU64(hr)
		sl, err3 := readU64(hr)
		pp, err4 := readU64(hr)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, meta, fmt.Errorf("core: truncated supernode table")
		}
		ranges[k] = symbolic.Range{Lo: int(lo), Hi: int(hi)}
		subLo[k] = int(sl)
		parent[k] = int(pp) - 1
		if parent[k] >= ns || int(hi) > n || int(lo) > int(hi) {
			return nil, meta, fmt.Errorf("core: corrupt supernode %d", k)
		}
	}
	sn := symbolic.New(ranges, parent, subLo)
	if msg := sn.Check(); msg != "" {
		return nil, meta, fmt.Errorf("core: corrupt supernode structure: %s", msg)
	}
	f := newFactor(n, perm, graph.InversePerm(perm), sn, K)
	var drop []float64
	for k := 0; k < ns; k++ {
		payload := [][]float64{f.diag[k].Data, f.up[k].Data}
		if ver < factorVersion {
			// The legacy down panel is upᵀ: read it through the CRC and
			// drop it.
			if cap(drop) < len(f.up[k].Data) {
				drop = make([]float64, len(f.up[k].Data))
			}
			payload = append(payload, drop[:len(f.up[k].Data)])
		}
		for _, data := range payload {
			if err := readFloats(hr, data); err != nil {
				return nil, meta, fmt.Errorf("core: truncated factor payload: %w", err)
			}
		}
	}
	want := h.Sum64()
	got, err := readU64(br) // trailer is outside the checksummed range
	if err != nil {
		return nil, meta, fmt.Errorf("core: truncated factor checkpoint (missing checksum): %w", err)
	}
	if got != want {
		return nil, meta, fmt.Errorf("core: factor checkpoint checksum mismatch (stored %016x, computed %016x) — file is corrupt", got, want)
	}
	return f, meta, nil
}

// SaveFactorFile atomically checkpoints f to path with an empty meta
// block; see SaveFactorFileMeta.
func SaveFactorFile(path string, f *Factor) error {
	return SaveFactorFileMeta(path, f, CheckpointMeta{})
}

// SaveFactorFileMeta atomically checkpoints f plus recovery metadata
// to path: the factor is written to a temporary file in the same
// directory, synced, and renamed into place, so a crash mid-save never
// leaves a torn checkpoint behind under the final name. The
// "core.factorio.sync" and "core.factorio.rename" failpoints bracket
// the two durability steps for chaos coverage of both crash windows.
func SaveFactorFileMeta(path string, f *Factor, meta CheckpointMeta) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := WriteFactorMeta(tmp, f, meta); err != nil {
		tmp.Close()
		return err
	}
	if err := fault.InjectErr("core.factorio.sync"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fault.InjectErr("core.factorio.rename"); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFactorFile restores a factor from a checkpoint written by
// SaveFactorFile (or any WriteTo output), verifying its checksum and
// running Validate before handing it back.
func LoadFactorFile(path string) (*Factor, error) {
	f, _, err := LoadFactorFileMeta(path)
	return f, err
}

// LoadFactorFileMeta restores a factor and its recovery metadata,
// verifying the checksum and running Validate before handing either
// back. Legacy v2 files load with a zero meta block.
func LoadFactorFileMeta(path string) (*Factor, CheckpointMeta, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, CheckpointMeta{}, err
	}
	defer fh.Close()
	f, meta, err := ReadFactorMeta(fh)
	if err != nil {
		return nil, CheckpointMeta{}, fmt.Errorf("core: restoring factor from %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, CheckpointMeta{}, fmt.Errorf("core: restored factor from %s failed validation: %w", path, err)
	}
	return f, meta, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeU64s(w io.Writer, vs ...uint64) error {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// writeFloats writes a float64 slice as raw little-endian payload.
func writeFloats(w io.Writer, data []float64) error {
	buf := make([]byte, 8*1024)
	for len(data) > 0 {
		chunk := len(data)
		if chunk > 1024 {
			chunk = 1024
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(data[i]))
		}
		if _, err := w.Write(buf[:8*chunk]); err != nil {
			return err
		}
		data = data[chunk:]
	}
	return nil
}

func readFloats(r io.Reader, data []float64) error {
	buf := make([]byte, 8*1024)
	for len(data) > 0 {
		chunk := len(data)
		if chunk > 1024 {
			chunk = 1024
		}
		if _, err := io.ReadFull(r, buf[:8*chunk]); err != nil {
			return err
		}
		for i := 0; i < chunk; i++ {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		data = data[chunk:]
	}
	return nil
}
