package repro.bench

import repro.SparkSpec
import repro.tables.Table7Throughput

/** T7 — ingestion throughput at SF=0.1: the "flexible and scalable" claim.
  * Expected shape: hundreds of thousands of packets drain through the
  * Structured Streaming path at >5k packets/s on the local 16-core box, and
  * the streaming store holds the same points as a batch reprocess's store.
  */
class Table7ThroughputBench extends SparkSpec {

  test("T7: streaming ingestion throughput and stream/batch parity") {
    val res = Table7Throughput.compute(spark, sf = 0.1)
    println(res.rendered)

    assert(res.packetsOnBridge > 200000, s"packets=${res.packetsOnBridge}")
    assert(res.parity, s"stream=${res.storedPoints} batch=${res.batchPoints} " +
      s"differing=${res.mismatchedPoints}")
    // 8 points per reading: more than 100k readings stored.
    assert(res.storedPoints > 8 * 100000)

    // Throughput floor: generous, but catches accidental per-row work.
    assert(res.streamRowsPerSec > 2000, s"stream ${res.streamRowsPerSec}/s")
    assert(res.batchRowsPerSec > 2000, s"batch ${res.batchRowsPerSec}/s")
  }
}
