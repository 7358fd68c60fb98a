//go:build !race

package pktbuf

// poisonOnFree is off outside race-detector builds (see race.go): the
// guard compiles out of the release path.
const poisonOnFree = false
