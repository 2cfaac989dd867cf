// Command meshmon-replay feeds recorded telemetry (the JSONL files
// meshmon-sim -record writes: one wire.Batch per line) into a live
// collector over HTTP — the end-to-end proof that the client wire
// format, the HTTP uplink and the server ingest interoperate.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"lorameshmon/internal/uplink"
	"lorameshmon/internal/wire"
)

func main() {
	var (
		file  = flag.String("file", "", "JSONL file of wire.Batch lines (required)")
		url   = flag.String("url", "http://localhost:8080/api/v1/ingest", "collector ingest endpoint")
		pace  = flag.Duration("pace", 0, "delay between batches (0 = as fast as possible)")
		limit = flag.Int("limit", 0, "stop after this many batches (0 = all)")
	)
	flag.Parse()
	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*file)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	up := uplink.NewHTTP(*url)
	sent, failed, err := replay(f, up.SendSync, *limit, *pace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d batches (%d failed) to %s\n", sent, failed, *url)
}

// replay decodes r line by line and hands each batch to send, pausing
// pace between batches and stopping after limit sent (0 = all). Blank
// lines are skipped; a line that does not decode, is longer than
// wire.MaxBatchBytes, or that send refuses counts as failed. The error
// is a read error of r.
func replay(r io.Reader, send func(wire.Batch) error, limit int, pace time.Duration) (sent, failed int, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var line []byte
	for {
		var tooLong bool
		line, tooLong, err = readLine(br, line[:0])
		if err != nil && err != io.EOF {
			return sent, failed, err
		}
		switch {
		case tooLong:
			log.Printf("skipping line over %d bytes", wire.MaxBatchBytes)
			failed++
		case len(line) > 0:
			if err := sendLine(line, send); err != nil {
				log.Print(err)
				failed++
				break
			}
			sent++
			if limit > 0 && sent >= limit {
				return sent, failed, nil
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
		if err == io.EOF {
			return sent, failed, nil
		}
	}
}

// sendLine decodes one line and sends its batch.
func sendLine(line []byte, send func(wire.Batch) error) error {
	batch, err := wire.DecodeBatch(line)
	if err != nil {
		return fmt.Errorf("skipping malformed line: %v", err)
	}
	if err := send(batch); err != nil {
		return fmt.Errorf("batch %d from %v rejected: %v", batch.SeqNo, batch.Node, err)
	}
	return nil
}

// readLine appends the next line of br to buf, without its "\n" or
// "\r\n", as bufio.ScanLines splits them. A line longer than
// wire.MaxBatchBytes is consumed but not kept: tooLong reports it. The
// error is io.EOF once the input ends, with or without a final line.
func readLine(br *bufio.Reader, buf []byte) (line []byte, tooLong bool, err error) {
	for {
		chunk, err := br.ReadSlice('\n')
		if !tooLong && len(buf)+len(chunk) <= wire.MaxBatchBytes+2 {
			buf = append(buf, chunk...)
		} else {
			tooLong, buf = true, buf[:0]
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		buf = bytes.TrimSuffix(buf, []byte("\n"))
		buf = bytes.TrimSuffix(buf, []byte("\r"))
		if len(buf) > wire.MaxBatchBytes {
			tooLong, buf = true, buf[:0]
		}
		return buf, tooLong, err
	}
}
