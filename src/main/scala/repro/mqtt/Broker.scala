package repro.mqtt

import java.io.{BufferedWriter, File, FileWriter}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** Minimal in-process MQTT-style broker (§2.1: "data forwarding and cloud
  * sensor management was built through the event-driven MQTT communication
  * protocol").
  *
  * Supports hierarchical topics with `+` (one level) and `#` (multi-level
  * suffix) wildcards, QoS-0 at-most-once delivery to subscribers in
  * publication order, and retained messages replayed to late subscribers.
  * Thread-safe via coarse synchronization — this is a substrate, not a
  * throughput contest; Spark ingests from the [[FileBridge]] directory.
  */
class Broker {

  import Broker.Subscription

  private val subs = mutable.ArrayBuffer.empty[Subscription]
  private val retained = mutable.LinkedHashMap.empty[String, String]
  private val published = new AtomicLong(0)

  /** MQTT topic-filter matching. */
  def matches(filter: String, topic: String): Boolean = {
    val f = filter.split("/", -1)
    val t = topic.split("/", -1)
    def go(i: Int, j: Int): Boolean =
      if (i == f.length) j == t.length
      else f(i) match {
        case "#" => true
        case "+" => j < t.length && go(i + 1, j + 1)
        case lit => j < t.length && t(j) == lit && go(i + 1, j + 1)
      }
    go(0, 0)
  }

  def publish(topic: String, payload: String, retain: Boolean = false): Unit = synchronized {
    published.incrementAndGet()
    if (retain) retained(topic) = payload
    subs.foreach(s => if (matches(s.filter, topic)) s.callback(topic, payload))
  }

  /** Subscribe; retained messages matching the filter are replayed first. */
  def subscribe(filter: String)(callback: (String, String) => Unit): Subscription =
    synchronized {
      retained.foreach { case (t, p) => if (matches(filter, t)) callback(t, p) }
      val s = Subscription(filter, callback)
      subs += s
      s
    }

  def unsubscribe(s: Subscription): Unit = synchronized { subs -= s }

  def publishedCount: Long = published.get()
}

object Broker {
  final case class Subscription(filter: String, callback: (String, String) => Unit)
}

/** Bridges a broker topic filter into JSON-lines files under `dir`, the
  * directory Structured Streaming ingests from — the substitute for the
  * production MQTT→cloud-storage forwarder.
  *
  * Payloads must already be JSON objects (the packet forwarder publishes
  * them as such). Files roll every `rollEvery` messages so the streaming
  * file source sees multiple atomically-completed files.
  */
class FileBridge(broker: Broker, filter: String, dir: File, rollEvery: Int = 1000) {
  require(dir.isDirectory || dir.mkdirs(), s"cannot create $dir")

  private var writer: BufferedWriter = _
  private var inFile = 0
  private var fileIdx = 0
  private var pending: File = _

  private val subscription = broker.subscribe(filter) { (_, payload) =>
    synchronized {
      if (writer == null) {
        pending = new File(dir, f"_tmp_bridge_$fileIdx%06d.json")
        writer = new BufferedWriter(new FileWriter(pending))
      }
      writer.write(payload); writer.newLine()
      inFile += 1
      if (inFile >= rollEvery) rollLocked()
    }
  }

  private def rollLocked(): Unit = {
    if (writer != null) {
      writer.close()
      // Atomic rename so the Spark file source never reads a partial file.
      val finalFile = new File(dir, f"bridge_$fileIdx%06d.json")
      require(pending.renameTo(finalFile), s"rename failed for $pending")
      writer = null; pending = null; inFile = 0; fileIdx += 1
    }
  }

  /** Flush any partial file and stop bridging. */
  def close(): Unit = synchronized {
    rollLocked()
    broker.unsubscribe(subscription)
  }
}
