module sensoragg/benchmark

go 1.22

require sensoragg v0.0.0

replace sensoragg => ../
