// Command gsnp-align reproduces the real cmd/gsnp-align before closecheck
// existed: the aligned SOAP file replaced os.Stdout as the output handle,
// and its Close error was discarded by a bare defer.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	outPath := flag.String("out", "", "output SOAP file (default stdout)")
	flag.Parse()

	out := os.Stdout
	if *outPath != "" && *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close() // want "defer f.Close discards the Close error of a file opened for writing"
		out = f
	}
	_, err := fmt.Fprintln(out, "read1\tACGT\tIIII\t1\ta\t4\t+\tchr21\t100\t0")
	return err
}
