package exper

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"rbcsalted/internal/cpu"
)

func renderOK(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s: empty rendering", tbl.ID)
	}
	var csv bytes.Buffer
	if err := tbl.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func cell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tbl.ID, row, col)
	}
	return tbl.Rows[row][col]
}

func parseSecs(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	tbl := Table1()
	renderOK(t, tbl)
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// d=5 exhaustive must be ~9.0e9.
	if got := cell(t, tbl, 4, 1); got != "8.99e+09" {
		t.Errorf("u(5) cell = %q", got)
	}
}

func TestTable4Ordering(t *testing.T) {
	tbl := Table4()
	renderOK(t, tbl)
	gray := parseSecs(t, cell(t, tbl, 0, 1))
	alg515 := parseSecs(t, cell(t, tbl, 1, 1))
	gosper := parseSecs(t, cell(t, tbl, 2, 1))
	// Gosper's position is a prediction from host-measured iterator costs;
	// allow 10% measurement headroom above Algorithm 515 on loaded hosts.
	// Race builds degrade gray < gosper to <=: the detector's
	// instrumentation can invert the measured host gap between the two
	// iterators, and the model clamps a negative gap to zero (equal
	// rows) — see cpu.RaceEnabled.
	if !(gray <= gosper && gosper < alg515*1.10) {
		t.Errorf("ordering broken: gray=%.2f gosper=%.2f alg515=%.2f", gray, gosper, alg515)
	}
	if !cpu.RaceEnabled && !(gray < gosper) {
		t.Errorf("gray (%.2f) not strictly faster than gosper (%.2f)", gray, gosper)
	}
	// Anchored rows must match the paper closely.
	if gray < 4.4 || gray > 4.95 {
		t.Errorf("gray = %.2f, want ~4.67", gray)
	}
	if alg515 < 7.1 || alg515 > 7.95 {
		t.Errorf("alg515 = %.2f, want ~7.53", alg515)
	}
}

func TestTable5Shape(t *testing.T) {
	tbl := Table5(20)
	renderOK(t, tbl)
	if len(tbl.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tbl.Rows))
	}
	get := func(platform, hash, search string) float64 {
		for _, row := range tbl.Rows {
			if row[0] == platform && row[1] == hash && row[2] == search {
				return parseSecs(t, row[5])
			}
		}
		t.Fatalf("row %s/%s/%s missing", platform, hash, search)
		return 0
	}
	// Headline claims: GPU ~ APU on SHA-1; GPU beats APU and CPU on SHA-3;
	// everyone beats CPU; average < exhaustive.
	gpuSHA1 := get("SALTED-GPU", "SHA-1", "Exhaustive")
	apuSHA1 := get("SALTED-APU", "SHA-1", "Exhaustive")
	if gpuSHA1/apuSHA1 > 1.15 || apuSHA1/gpuSHA1 > 1.15 {
		t.Errorf("SHA-1 GPU (%0.2f) and APU (%0.2f) should be near-equal", gpuSHA1, apuSHA1)
	}
	gpuSHA3 := get("SALTED-GPU", "SHA-3", "Exhaustive")
	apuSHA3 := get("SALTED-APU", "SHA-3", "Exhaustive")
	cpuSHA3 := get("SALTED-CPU", "SHA-3", "Exhaustive")
	if !(gpuSHA3 < apuSHA3 && apuSHA3 < cpuSHA3) {
		t.Errorf("SHA-3 ordering broken: gpu=%.2f apu=%.2f cpu=%.2f", gpuSHA3, apuSHA3, cpuSHA3)
	}
	for _, platform := range []string{"SALTED-GPU", "SALTED-APU", "SALTED-CPU"} {
		for _, hash := range []string{"SHA-1", "SHA-3"} {
			if avg, exh := get(platform, hash, "Average"), get(platform, hash, "Exhaustive"); avg >= exh {
				t.Errorf("%s/%s: average %.2f not below exhaustive %.2f", platform, hash, avg, exh)
			}
		}
	}
	// T=20s verdicts: only SALTED-CPU with SHA-3 exceeds the threshold
	// (search-only).
	if cpuSHA3-0.90 < 20 {
		t.Error("CPU SHA-3 should exceed T=20s")
	}
	if gpuSHA3-0.90 > 20 || apuSHA3-0.90 > 20 {
		t.Error("GPU/APU SHA-3 should authenticate within T=20s")
	}
}

func TestTable6Energy(t *testing.T) {
	tbl := Table6()
	renderOK(t, tbl)
	gpu1 := parseSecs(t, cell(t, tbl, 0, 2))
	apu1 := parseSecs(t, cell(t, tbl, 1, 2))
	gpu3 := parseSecs(t, cell(t, tbl, 2, 2))
	apu3 := parseSecs(t, cell(t, tbl, 3, 2))
	// SHA-1: APU needs ~39% of GPU joules. SHA-3: roughly equivalent.
	if r := apu1 / gpu1; r < 0.3 || r > 0.5 {
		t.Errorf("SHA-1 APU/GPU energy ratio %.2f", r)
	}
	if r := apu3 / gpu3; r < 0.85 || r > 1.25 {
		t.Errorf("SHA-3 APU/GPU energy ratio %.2f", r)
	}
}

func TestTable7(t *testing.T) {
	tbl := Table7()
	renderOK(t, tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Per-candidate Go-measured costs: hashing must be far cheaper than
	// PQC keygen.
	hash := parseSecs(t, cell(t, tbl, 3, 5))
	saberOp := parseSecs(t, cell(t, tbl, 1, 5))
	dilithiumOp := parseSecs(t, cell(t, tbl, 2, 5))
	if !(hash < saberOp && saberOp < dilithiumOp) {
		t.Errorf("per-op ordering broken: hash=%.1f saber=%.1f dilithium=%.1f",
			hash, saberOp, dilithiumOp)
	}
	// This-work GPU time must beat both PQC baselines' paper GPU times
	// despite searching a larger radius.
	gpuThis := parseSecs(t, cell(t, tbl, 3, 4))
	if gpuThis >= 14.03 {
		t.Errorf("SALTED-GPU %.2f not faster than SABER-GPU 14.03", gpuThis)
	}
}

func TestFigure3(t *testing.T) {
	tbl := Figure3()
	out := renderOK(t, tbl)
	if !strings.Contains(out, "n=100, b=128") {
		t.Errorf("optimum note missing: %s", tbl.Notes)
	}
}

func TestFigure4(t *testing.T) {
	tbl := Figure4(8)
	renderOK(t, tbl)
	// Find SHA-3 exhaustive speedup at 3 GPUs.
	var sp float64
	for _, row := range tbl.Rows {
		if row[0] == "SHA-3" && row[1] == "Exhaustive" && row[2] == "3" {
			sp = parseSecs(t, row[4])
		}
	}
	if sp < 2.7 || sp > 3.0 {
		t.Errorf("SHA-3 exhaustive 3-GPU speedup %.2f", sp)
	}
}

func TestCPUScalingAndFlagInterval(t *testing.T) {
	renderOK(t, CPUScaling())
	tbl := FlagInterval()
	renderOK(t, tbl)
	for _, row := range tbl.Rows {
		delta := strings.TrimSuffix(strings.TrimPrefix(row[2], "+"), "%")
		v, err := strconv.ParseFloat(delta, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v > 0.01 || v < -1.0 {
			t.Errorf("interval %s changed time by %s", row[0], row[2])
		}
	}
}

func TestSharedMemTable(t *testing.T) {
	tbl := SharedMem()
	renderOK(t, tbl)
	sha1Speedup := parseSecs(t, cell(t, tbl, 0, 3))
	if sha1Speedup < 1.15 || sha1Speedup > 1.25 {
		t.Errorf("SHA-1 shared-memory speedup %.2f, want ~1.20", sha1Speedup)
	}
}

func TestAwareVsSaltedExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real PQC keygen searches")
	}
	tbl := AwareVsSalted(1)
	renderOK(t, tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("engine %s did not find the seed", row[0])
		}
	}
	// Hash-based search must be cheaper than the PQC aware engines.
	salted := parseSecs(t, cell(t, tbl, 0, 2))
	dil := parseSecs(t, cell(t, tbl, 3, 2))
	if salted >= dil {
		t.Errorf("SALTED (%.3fs) not faster than aware Dilithium3 (%.3fs)", salted, dil)
	}
}

func TestMultiAPU(t *testing.T) {
	tbl := MultiAPU()
	renderOK(t, tbl)
	// Last APU row is 8 devices; its speedup must beat the 3-GPU row's.
	var gpu3, apu8 float64
	for _, row := range tbl.Rows {
		if row[0] == "A100 GPUs" && row[1] == "3" {
			gpu3 = parseSecs(t, row[3])
		}
		if row[0] == "Gemini APUs" && row[1] == "8" {
			apu8 = parseSecs(t, row[3])
		}
	}
	if apu8 <= gpu3 {
		t.Errorf("8-APU speedup %.2f not above 3-GPU %.2f", apu8, gpu3)
	}
}

func TestNoiseSecurity(t *testing.T) {
	tbl := NoiseSecurity()
	renderOK(t, tbl)
	// Times must grow with d, and the GPU must still be within T at d=5.
	var prev float64
	for i, row := range tbl.Rows {
		gpu := parseSecs(t, row[2])
		if i > 0 && gpu <= prev {
			t.Errorf("GPU time not increasing at d=%s", row[0])
		}
		prev = gpu
		if row[0] == "5" && gpu > 20 {
			t.Errorf("GPU exceeded T at d=5: %.2fs", gpu)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("nope", 10); err == nil {
		t.Error("unknown id accepted")
	}
	tbl, err := ByID("table1", 10)
	if err != nil || tbl.ID != "table1" {
		t.Errorf("ByID failed: %v", err)
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"with,comma", "with\"quote"}},
	}
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"with,comma\"") ||
		!strings.Contains(buf.String(), "\"with\"\"quote\"") {
		t.Errorf("CSV escaping wrong: %s", buf.String())
	}
}
