// Command gsnp reproduces the output-file handling of the real cmd/gsnp
// before closecheck existed: the call table went to a file whose Close
// error was discarded by a bare defer, so a full disk truncated it while
// the run reported success.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	outPath := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" && *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close() // want "defer f.Close discards the Close error of a file opened for writing"
		out = f
	}
	_, err := fmt.Fprintln(out, "chr21\t1\tA")
	return err
}
