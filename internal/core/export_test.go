package core

// The Fig. 1 oracle (fig1_oracle_test.go), for the external tests that run
// it on simulated networks.
type OracleResult = DetResult

var (
	OracleMedian         = oracleMedian
	OracleOrderStatistic = oracleOrderStatistic
)
