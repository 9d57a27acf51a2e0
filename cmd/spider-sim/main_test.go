package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputDigests pins spider-sim's output bytes: drives single and
// replicated, Boston with chaos and every export, the sharded city at
// two shard counts, its checkpoint, and a staggered city. Each case
// runs in its own directory; an argument naming a file in want is
// written there, and the file must hash to the pinned SHA-256.
func TestOutputDigests(t *testing.T) {
	const (
		driveArchive = "0d9d74b23ff5d2813321bbdffebf55a90b7df20049b8b1b1db25b882ef8d2350"
		repsArchive  = "272f7efe61750b1f582987e46b6920a8db2d7619844ed5478e880010f27afdbd"
		cityArchive  = "f0749b994be32fecc77fee5f5ed42511cfd3eb503bd3a988172d338298872772"
		cityMetrics  = "d478578b35d59761a2e810123ae4447e1acbca8c7acfc37ca90fdcb83891e9df"
		cityTrace    = "ec8f4e7a6a2a6d5247dbc2f87eda2f4fe665d908e2937cae5ba39fd7c9b45cc2"
	)
	drive := "-config 3ch-multi -minutes 2 -seed 3"
	boston := "-config 3ch-multi -city boston -speed 8 -aps 40 -minutes 2 -seed 7 -chaos mild"
	city := "-city citygrid -clients 20 -aps 60 -minutes 1 -seed 3 -chaos mild"
	cases := []struct {
		name string
		args string
		want map[string]string
	}{
		{"drive", drive + " -archive-out a.json", map[string]string{"a.json": driveArchive}},
		{"reps-w1", drive + " -reps 4 -workers 1 -archive-out a.json", map[string]string{"a.json": repsArchive}},
		{"reps-w2", drive + " -reps 4 -workers 2 -archive-out a.json", map[string]string{"a.json": repsArchive}},
		{"boston-chaos", boston + " -archive-out a.json -metrics-out m.prom -trace-out t.json", map[string]string{
			"a.json": "d90d3ba371c9d9ef33a229c1a75f0844a149611b362a36c008a059b4c456c06f",
			"m.prom": "544ffd42725bd810670e0257e3e018a137d44769fe5e3d592e58cbbfa8f14d20",
			"t.json": "6e1cc26609c9ce881ca3cca9364b6ecc99f8d25248f8453138cb5cf632e31d61",
		}},
		{"city-s1", city + " -shards 1 -archive-out a.json -metrics-out m.prom -trace-out x.jsonl", map[string]string{
			"a.json": cityArchive, "m.prom": cityMetrics, "x.jsonl": cityTrace,
		}},
		{"city-s2", city + " -shards 2 -archive-out a.json -metrics-out m.prom -trace-out x.jsonl", map[string]string{
			"a.json": cityArchive, "m.prom": cityMetrics, "x.jsonl": cityTrace,
		}},
		{"city-ckpt", city + " -checkpoint-out c.ckpt", map[string]string{
			"c.ckpt": "f74d9fad2678ed1e5aa75eecf268b7055e23abe6652a7bc080e07e5d66696c37",
		}},
		{"city-ckpt-archive", city + " -checkpoint-out c.ckpt -archive-out a.json", map[string]string{
			"c.ckpt": "1633f50be0f3ce14be5d37745d46b0e7f075b1e1f3607055dcc1edf1385891bb", "a.json": cityArchive,
		}},
		{"city-staggered", "-city citygrid -clients 24 -aps 80 -area-w 2400 -area-h 1600 -minutes 1 -seed 5" +
			" -join-spread 20s -join-ramp exp -archive-out a.json", map[string]string{
			"a.json": "eb287bc304abf5c48f133ed08b5505e2c479acbc87f205aaf8433a080ed5e0b6",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := strings.Fields(tc.args)
			for i, a := range args {
				if _, ok := tc.want[a]; ok {
					args[i] = filepath.Join(dir, a)
				}
			}
			if code := run(args, io.Discard); code != 0 {
				t.Fatalf("spider-sim %s: exit %d", tc.args, code)
			}
			for name, want := range tc.want {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s: sha256 %s, want %s", name, got, want)
				}
			}
		})
	}
}
