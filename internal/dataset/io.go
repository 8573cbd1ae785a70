package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"pdbscan/internal/geom"
)

// WriteCSV writes points as comma-separated coordinate rows.
func WriteCSV(w io.Writer, pts geom.Points) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var sb strings.Builder
	for i := 0; i < pts.N; i++ {
		sb.Reset()
		row := pts.At(i)
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads comma- or whitespace-separated coordinate rows. Blank lines
// and lines starting with '#' are skipped.
func ReadCSV(r io.Reader) (geom.Points, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var data []float64
	d := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == ';'
		})
		if d == 0 {
			d = len(fields)
			if d == 0 {
				return geom.Points{}, fmt.Errorf("dataset: line %d has no fields", line)
			}
		} else if len(fields) != d {
			return geom.Points{}, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), d)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return geom.Points{}, fmt.Errorf("dataset: line %d: %v", line, err)
			}
			data = append(data, v)
		}
	}
	if err := sc.Err(); err != nil {
		return geom.Points{}, err
	}
	if len(data) == 0 {
		return geom.Points{}, fmt.Errorf("dataset: empty input")
	}
	return geom.Points{N: len(data) / d, D: d, Data: data}, nil
}

// binMagic identifies the binary point format: "PDBS" + version 1.
var binMagic = [8]byte{'P', 'D', 'B', 'S', 1, 0, 0, 0}

// WriteBinary writes points in the library's little-endian binary format
// (magic, int64 n, int64 d, n*d float64s) — the fast path for large
// benchmark datasets.
func WriteBinary(w io.Writer, pts geom.Points) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(pts.N))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(pts.D))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, v := range pts.Data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads the binary point format written by WriteBinary.
func ReadBinary(r io.Reader) (geom.Points, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return geom.Points{}, err
	}
	if magic != binMagic {
		return geom.Points{}, fmt.Errorf("dataset: bad magic (not a pdbscan binary file)")
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return geom.Points{}, err
	}
	n := int(binary.LittleEndian.Uint64(hdr[0:]))
	d := int(binary.LittleEndian.Uint64(hdr[8:]))
	if n <= 0 || d <= 0 || n > 1<<40 || d > 1<<16 {
		return geom.Points{}, fmt.Errorf("dataset: implausible header n=%d d=%d", n, d)
	}
	// The header is untrusted, so data grows (doubling, capped at n*d) as
	// chunks arrive instead of being allocated up front: a short body fails
	// with io.ErrUnexpectedEOF having allocated about what it read.
	total := n * d
	data := make([]float64, 0, min(total, 1<<16))
	buf := make([]byte, 8*4096)
	for len(data) < total {
		k := min(total-len(data), len(buf)/8)
		if _, err := io.ReadFull(br, buf[:8*k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return geom.Points{}, err
		}
		if len(data)+k > cap(data) {
			grown := make([]float64, len(data), min(total, 2*cap(data)))
			copy(grown, data)
			data = grown
		}
		for o := 0; o < 8*k; o += 8 {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[o:])))
		}
	}
	return geom.Points{N: n, D: d, Data: data}, nil
}

// LoadFile reads points from a path, auto-detecting the binary format by
// magic and falling back to CSV.
func LoadFile(path string) (geom.Points, error) {
	f, err := os.Open(path)
	if err != nil {
		return geom.Points{}, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err == nil && magic == binMagic {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return geom.Points{}, err
		}
		return ReadBinary(f)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return geom.Points{}, err
	}
	return ReadCSV(f)
}

// SaveFile writes points to a path; format "bin" or "csv".
func SaveFile(path, format string, pts geom.Points) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "bin":
		return WriteBinary(f, pts)
	case "csv":
		return WriteCSV(f, pts)
	default:
		return fmt.Errorf("dataset: unknown format %q (want bin or csv)", format)
	}
}

// Generate builds one of the named datasets used throughout the benchmark
// harness. Names follow the paper: "ss-simden-<d>d", "ss-varden-<d>d",
// "uniform-<d>d", "geolife", "cosmo", "osm", "teraclick", "household".
func Generate(name string, n int, seed int64) (geom.Points, error) {
	switch name {
	case "geolife":
		return GeoLifeSim(n, seed), nil
	case "cosmo":
		return CosmoSim(n, seed), nil
	case "osm":
		return OSMSim(n, seed), nil
	case "teraclick":
		return TeraClickSim(n, seed), nil
	case "household":
		return HouseholdSim(n, seed), nil
	}
	var d int
	switch {
	case strings.HasPrefix(name, "ss-simden-") && strings.HasSuffix(name, "d"):
		if _, err := fmt.Sscanf(name, "ss-simden-%dd", &d); err != nil {
			return geom.Points{}, fmt.Errorf("dataset: bad name %q", name)
		}
		return SeedSpreader(SeedSpreaderConfig{N: n, D: d, Seed: seed}), nil
	case strings.HasPrefix(name, "ss-varden-") && strings.HasSuffix(name, "d"):
		if _, err := fmt.Sscanf(name, "ss-varden-%dd", &d); err != nil {
			return geom.Points{}, fmt.Errorf("dataset: bad name %q", name)
		}
		return SeedSpreader(SeedSpreaderConfig{N: n, D: d, VarDen: true, Seed: seed}), nil
	case strings.HasPrefix(name, "uniform-") && strings.HasSuffix(name, "d"):
		if _, err := fmt.Sscanf(name, "uniform-%dd", &d); err != nil {
			return geom.Points{}, fmt.Errorf("dataset: bad name %q", name)
		}
		return UniformFill(n, d, seed), nil
	case strings.HasPrefix(name, "drift-") && strings.HasSuffix(name, "d"):
		if _, err := fmt.Sscanf(name, "drift-%dd", &d); err != nil {
			return geom.Points{}, fmt.Errorf("dataset: bad name %q", name)
		}
		return DriftStream(DriftStreamConfig{N: n, D: d, Seed: seed}), nil
	}
	return geom.Points{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Names lists the generatable dataset names (with <d> placeholders expanded
// for the dimensions the paper evaluates).
func Names() []string {
	out := []string{}
	for _, d := range []int{2, 3, 5, 7} {
		out = append(out,
			fmt.Sprintf("ss-simden-%dd", d),
			fmt.Sprintf("ss-varden-%dd", d),
			fmt.Sprintf("uniform-%dd", d),
			fmt.Sprintf("drift-%dd", d),
		)
	}
	return append(out, "geolife", "cosmo", "osm", "teraclick", "household")
}
