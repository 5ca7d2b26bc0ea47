package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqr(v); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr(1..10) = %v, want 5.5", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0]
	if got := iqr([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5) > 1e-12 {
		t.Errorf("iqr(1,2,4,8,16) = %v, want 10.5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
		{"name": "doc_mb_s", "unit": "MB/s", "better": "higher", "bound": 0.1}]}`), 0o644)
	write := func(name string, mbs ...float64) string {
		path := filepath.Join(dir, name)
		var lines string
		for _, v := range mbs {
			lines += fmt.Sprintf(`w {"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"},"doc_mb_s":{"value":%v,"unit":"MB/s"}}}`+"\n", v)
		}
		os.WriteFile(path, []byte(lines), 0o644)
		return path
	}
	agree := []string{write("a1", 10, 10.2, 10.1), write("b1", 10.1, 10.3, 9.9), write("a2", 10, 10.1, 10.2), write("b2", 10.2, 10, 10.1)}
	if err := compareSets(io.Discard, bench, agree); err != nil {
		t.Errorf("sets that agree: %v", err)
	}
	slower := []string{agree[0], write("b1s", 8.5, 8.6, 8.4), agree[2], write("b2s", 8.5, 8.4, 8.6)}
	if err := compareSets(io.Discard, bench, slower); err == nil {
		t.Error("set B 15% slower than A under a 10% bound was accepted")
	}
	wrong := filepath.Join(dir, "wrong")
	os.WriteFile(wrong, []byte(`w {"correct":false,"attempted":1,"failed":1,"metrics":{}}`+"\n"), 0o644)
	if err := compareSets(io.Discard, bench, []string{wrong, agree[1]}); err == nil {
		t.Error("an incorrect run was accepted")
	}
}
