package core

import (
	"bytes"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/semiring"
)

func TestFactorRoundTrip(t *testing.T) {
	g := gen.RoadNetwork(14, 14, 0.3, 91)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	f2, err := ReadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same SSSP answers, same memory, same structure.
	if f2.Memory() != f.Memory() {
		t.Errorf("memory %d != %d after round trip", f2.Memory(), f.Memory())
	}
	for src := 0; src < g.N; src += 23 {
		a := f.SSSP(src)
		b := f2.SSSP(src)
		for v := range a {
			if a[v] != b[v] && !(math.IsInf(a[v], 1) && math.IsInf(b[v], 1)) {
				t.Fatalf("SSSP(%d)[%d]: %g != %g", src, v, a[v], b[v])
			}
		}
	}
	if f.Dist(3, 100) != f2.Dist(3, 100) {
		t.Error("label query differs after round trip")
	}
}

func TestFactorRoundTripWidest(t *testing.T) {
	g := gen.GeometricKNN(100, 2, 3, gen.WeightUniform, 92)
	plan, err := NewPlan(g, Options{Semiring: semiring.MaxMinKernels})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f2.K != semiring.MaxMinKernels {
		t.Error("semiring not restored")
	}
	a, b := f.SSSP(5), f2.SSSP(5)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("widest SSSP differs after round trip")
		}
	}
}

func TestCheckpointMetaRoundTrip(t *testing.T) {
	g := gen.RoadNetwork(8, 8, 0.3, 94)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := CheckpointMeta{
		Generation:  7,
		GraphDigest: GraphDigest(g),
		Overlay: []EdgeDelta{
			{U: 0, V: 1, W: 0.25},
			{U: 2, V: 9, W: 3.5},
		},
	}
	var buf bytes.Buffer
	if _, err := WriteFactorMeta(&buf, f, meta); err != nil {
		t.Fatal(err)
	}
	f2, got, err := ReadFactorMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 7 || got.GraphDigest != meta.GraphDigest {
		t.Fatalf("meta round trip: %+v, want %+v", got, meta)
	}
	if len(got.Overlay) != 2 || got.Overlay[0] != meta.Overlay[0] || got.Overlay[1] != meta.Overlay[1] {
		t.Fatalf("overlay round trip: %+v", got.Overlay)
	}
	if err := got.Validate(GraphDigest(g)); err != nil {
		t.Fatalf("Validate against own graph: %v", err)
	}
	// A different graph must be rejected by digest.
	other := gen.RoadNetwork(8, 8, 0.3, 95)
	if err := got.Validate(GraphDigest(other)); err == nil {
		t.Fatal("checkpoint for a different graph validated")
	}
	if f2.Dist(0, 5) != f.Dist(0, 5) {
		t.Fatal("factor differs after meta round trip")
	}
}

// legacyCheckpoint writes f in the pre-v4 layout of format version ver
// (2 or 3): the meta block only from v3 on, and after each supernode's
// diag and up payloads a down payload holding upᵀ. downAt is the file
// offset of the first byte of the first non-empty down payload, or -1.
func legacyCheckpoint(t *testing.T, f *Factor, ver uint32, meta CheckpointMeta) (file []byte, downAt int) {
	t.Helper()
	sid, err := semiringID(f.K)
	if err != nil {
		t.Fatal(err)
	}
	const header = 8
	var body bytes.Buffer
	body.WriteByte(sid)
	if ver >= 3 {
		writeU64s(&body, meta.Generation, meta.GraphDigest, uint64(len(meta.Overlay)))
		for _, d := range meta.Overlay {
			writeU64s(&body, uint64(d.U), uint64(d.V), math.Float64bits(d.W))
		}
	}
	ns := f.sn.NumSupernodes()
	writeU64s(&body, uint64(f.n), uint64(ns))
	for _, p := range f.perm {
		writeU64s(&body, uint64(p))
	}
	for k := 0; k < ns; k++ {
		r := f.sn.Ranges[k]
		writeU64s(&body, uint64(r.Lo), uint64(r.Hi), uint64(f.sn.SubLo[k]), uint64(f.sn.Parent[k]+1))
	}
	downAt = -1
	for k := 0; k < ns; k++ {
		down := semiring.NewMat(f.up[k].Cols, f.up[k].Rows)
		down.TransposeFrom(f.up[k])
		writeFloats(&body, f.diag[k].Data)
		writeFloats(&body, f.up[k].Data)
		if downAt < 0 && len(down.Data) > 0 {
			downAt = header + body.Len()
		}
		writeFloats(&body, down.Data)
	}
	var out bytes.Buffer
	out.WriteString(factorMagic)
	writeU32(&out, ver)
	out.Write(body.Bytes())
	writeU64s(&out, crc64.Checksum(body.Bytes(), factorCRCTable))
	return out.Bytes(), downAt
}

// multiSupernodeFactor factors a graph whose plan has several supernodes,
// so every checkpoint carries non-empty panels.
func multiSupernodeFactor(t *testing.T) (*Factor, *graph.Graph) {
	t.Helper()
	g := gen.RoadNetwork(12, 12, 0.3, 96)
	plan, err := NewPlan(g, Options{MaxBlock: 16, LeafSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.sn.NumSupernodes() < 3 {
		t.Fatalf("want several supernodes, got %d", f.sn.NumSupernodes())
	}
	return f, g
}

// sameAnswers requires g's factor f2 to answer every sampled query
// bit-for-bit like f.
func sameAnswers(t *testing.T, f, f2 *Factor) {
	t.Helper()
	if f2.Memory() != f.Memory() {
		t.Fatalf("memory %d, want %d", f2.Memory(), f.Memory())
	}
	for u := 0; u < f.n; u += 11 {
		a, b := f.SSSP(u), f2.SSSP(u)
		for v := range a {
			if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
				t.Fatalf("SSSP(%d)[%d] = %v, want %v", u, v, b[v], a[v])
			}
			if x, y := f.Dist(u, v), f2.Dist(u, v); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, y, x)
			}
		}
	}
}

// TestCheckpointV2BackCompat writes a v2 stream (no meta block, down
// payloads stored) and asserts it still loads — at generation 0 with an
// empty overlay, which boot paths treat as "legacy checkpoint, cold
// state" — and answers like the factor it came from.
func TestCheckpointV2BackCompat(t *testing.T) {
	f, g := multiSupernodeFactor(t)
	v2, _ := legacyCheckpoint(t, f, 2, CheckpointMeta{})
	f2, meta, err := ReadFactorMeta(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 file rejected: %v", err)
	}
	if meta.Generation != 0 || meta.GraphDigest != 0 || meta.Overlay != nil {
		t.Fatalf("v2 load produced non-zero meta: %+v", meta)
	}
	if meta.Validate(GraphDigest(g)) == nil {
		t.Fatal("zero meta validated as durable — legacy files must be detectable")
	}
	sameAnswers(t, f, f2)
}

// TestCheckpointV3BackCompat loads a v3 checkpoint, which still stores
// the down panel, through the file path (checksum, then Validate), and
// requires its meta block and its answers to match the factor it was
// written from. A v3 file with one flipped byte in a down payload — the
// part v4 drops on load — must still fail the checksum.
func TestCheckpointV3BackCompat(t *testing.T) {
	f, g := multiSupernodeFactor(t)
	meta := CheckpointMeta{Generation: 5, GraphDigest: GraphDigest(g),
		Overlay: []EdgeDelta{{U: 1, V: 2, W: 0.5}}}
	v3, downAt := legacyCheckpoint(t, f, 3, meta)
	if downAt < 0 {
		t.Fatal("v3 file has no down payload to corrupt")
	}
	path := filepath.Join(t.TempDir(), "v3.sfwf")
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	f2, got, err := LoadFactorFileMeta(path)
	if err != nil {
		t.Fatalf("v3 file rejected: %v", err)
	}
	if err := got.Validate(GraphDigest(g)); err != nil {
		t.Fatalf("v3 meta: %v", err)
	}
	if got.Generation != 5 || len(got.Overlay) != 1 || got.Overlay[0] != meta.Overlay[0] {
		t.Fatalf("v3 meta %+v, want %+v", got, meta)
	}
	sameAnswers(t, f, f2)

	// Re-saving writes v4: smaller by exactly the down payloads.
	var v4 bytes.Buffer
	if _, err := WriteFactorMeta(&v4, f2, got); err != nil {
		t.Fatal(err)
	}
	var downBytes int
	for k := range f.up {
		downBytes += 8 * len(f.up[k].Data)
	}
	if v4.Len() != len(v3)-downBytes {
		t.Fatalf("v4 re-save is %d bytes, want %d (v3 %d less %d down bytes)", v4.Len(), len(v3)-downBytes, len(v3), downBytes)
	}

	mut := append([]byte{}, v3...)
	mut[downAt+3] ^= 0x10
	if _, _, err := ReadFactorMeta(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("v3 file with a flipped down byte: err = %v, want checksum mismatch", err)
	}
}

// TestCheckpointCorpusRejected drives ReadFactorMeta over a corpus of
// damaged v3 checkpoints — truncations at every structural boundary
// and bit flips in header, meta block, overlay, payload, and trailer —
// and requires every one to be rejected whole: a corrupt checkpoint is
// never half-applied.
func TestCheckpointCorpusRejected(t *testing.T) {
	g := gen.Grid2D(6, 6, gen.WeightUniform, 97)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := CheckpointMeta{Generation: 3, GraphDigest: GraphDigest(g),
		Overlay: []EdgeDelta{{U: 1, V: 2, W: 0.5}}}
	var buf bytes.Buffer
	if _, err := WriteFactorMeta(&buf, f, meta); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 4, 8, 9, 17, 25, 33, 40, len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 1} {
		if _, _, err := ReadFactorMeta(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for _, flip := range []int{9, 13, 21, 29, 37, 45, len(full) / 2, len(full) - 4} {
		mut := append([]byte{}, full...)
		mut[flip] ^= 0x01
		f2, m2, err := ReadFactorMeta(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("bit flip at %d accepted (gen %d)", flip, m2.Generation)
			_ = f2
		}
	}
}

func TestReadFactorRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOPE",
		"SFWF\x09\x00\x00\x00", // bad version
	}
	for i, c := range cases {
		if _, err := ReadFactor(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated real file.
	g := gen.Grid2D(6, 6, gen.WeightUniform, 93)
	plan, _ := NewPlan(g, DefaultOptions())
	f, _ := NewFactor(plan, 1)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 12, len(full) / 2, len(full) - 1} {
		if _, err := ReadFactor(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
