package archive

import (
	"fmt"
	"strconv"

	"spider/internal/sweep"
)

func fnv64a(h uint64, s string) uint64 {
	const fnvPrime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

const fnvOffset = 14695981039346656037

// Fingerprint hashes an ordered list of identity strings into a
// 64-bit fingerprint. Parts are length-prefixed so ("ab","c") and
// ("a","bc") cannot collide by concatenation.
func Fingerprint(parts ...string) uint64 {
	h := uint64(fnvOffset)
	for _, p := range parts {
		h = fnv64a(h, strconv.Itoa(len(p)))
		h = fnv64a(h, "|")
		h = fnv64a(h, p)
	}
	return sweep.Mix(h)
}

// FP renders a fingerprint as the 16-hex-digit form used throughout the
// archive.
func FP(parts ...string) string { return fmt.Sprintf("%016x", Fingerprint(parts...)) }

// RunID derives the document ID from the run's plan identity: format,
// version, seed, and config fingerprint. No wall-clock, no randomness —
// the same plan always yields the same RunID.
func RunID(seed int64, configFP string) string {
	return fmt.Sprintf("%016x", Fingerprint(Format, strconv.Itoa(Version),
		strconv.FormatInt(seed, 10), configFP))
}

// SubID derives a sub-measurement ID from its parent's ID, the section
// it lives in ("client", "fault", "metric", "span", "result",
// "experiment"), and its index there: sweep.TaskSeed's
// mix(mix(mix(fnv(parent)) ^ fnv(section)) ^ index) chain, so adjacent
// indices land far apart and IDs are unique within a document by
// construction.
func SubID(parentID, section string, index int) string {
	return fmt.Sprintf("%016x", uint64(sweep.TaskSeed(int64(fnv64a(fnvOffset, parentID)), section, index)))
}
