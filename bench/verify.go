package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// site is one variant position.
type site struct {
	Chr string
	Pos int
}

// parseVCF returns the positions of a VCF's records, checking the shape
// every record must have: the #CHROM header before the first record, ten
// tab-separated columns, a positive POS, a single-base REF and one or two
// single-base ALT alleles that differ from it.
func parseVCF(r io.Reader) ([]site, error) {
	var sites []site
	header := false
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "##"):
		case strings.HasPrefix(line, "#CHROM\t"):
			header = true
		default:
			f := strings.Split(line, "\t")
			pos, err := strconv.Atoi(f[min(1, len(f)-1)])
			if !header || len(f) != 10 || err != nil || pos < 1 || len(f[3]) != 1 || !altsOK(f[4], f[3]) {
				return nil, fmt.Errorf("line %d: malformed VCF record %q", n, line)
			}
			sites = append(sites, site{f[0], pos})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("no #CHROM header line")
	}
	return sites, nil
}

func altsOK(alt, ref string) bool {
	alts := strings.Split(alt, ",")
	for _, a := range alts {
		if len(a) != 1 || a == ref {
			return false
		}
	}
	return len(alts) <= 2
}

// parseTruth reads gsnp-gen's .truth file: chromosome, 1-based position,
// reference base, genotype, known flag.
func parseTruth(r io.Reader) ([]site, error) {
	var sites []site
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		f := strings.Split(sc.Text(), "\t")
		if len(f) < 2 {
			return nil, fmt.Errorf("line %d: malformed truth record", n)
		}
		pos, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		sites = append(sites, site{f[0], pos})
	}
	return sites, sc.Err()
}

// score compares called positions with the true ones: sensitivity is the
// share of true variants that were called, precision the share of calls
// that are true variants.
func score(called, truth []site) (sensitivity, precision float64) {
	isTrue := make(map[site]bool, len(truth))
	for _, s := range truth {
		isTrue[s] = true
	}
	hit := 0
	for _, s := range called {
		if isTrue[s] {
			hit++
		}
	}
	if len(truth) > 0 {
		sensitivity = float64(hit) / float64(len(truth))
	}
	if len(called) > 0 {
		precision = float64(hit) / float64(len(called))
	}
	return sensitivity, precision
}

// scoreVCFs parses every VCF of a run and scores the calls of all
// chromosomes together against the generator's truth files in dir. A VCF
// that does not parse is a failed unit.
func scoreVCFs(res *runResult, dir string, vcfs []string) {
	var called, truth []site
	read := func(path string, parse func(io.Reader) ([]site, error)) ([]site, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parse(f)
	}
	for _, path := range vcfs {
		stem := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		c, err := read(path, parseVCF)
		if err != nil {
			res.fail("%s: %v", filepath.Base(path), err)
			continue
		}
		t, err := read(filepath.Join(dir, stem+".truth"), parseTruth)
		if err != nil {
			res.fail("%s.truth: %v", stem, err)
			continue
		}
		called, truth = append(called, c...), append(truth, t...)
	}
	sens, prec := score(called, truth)
	res.set("sensitivity", sens, len(truth))
	res.set("precision", prec, len(called))
}
