package server

// Dispatch is the daemon's request handler, for the external tests.
var Dispatch = (*Daemon).dispatch

// RaceEnabled exports raceEnabled to the external tests.
const RaceEnabled = raceEnabled
