package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import org.apache.spark.sql.streaming.StreamingQueryListener._

/** One span around a call into a layer. `parent` is 0 for a root span;
  * spans of one request share `req`.
  */
final case class Span(id: Int, name: String, parent: Int, req: Long, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans kept in memory and written out when the run ends. With tracing
  * off, [[span]] only runs its body, so untraced runs pay nothing for it.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val ids = new AtomicInteger(1)
  private val stack = new ThreadLocal[List[(Int, Long)]] {
    override def initialValue(): List[(Int, Long)] = Nil
  }

  /** Times `body` as span `name`; a child of the innermost open span of
    * this thread, inheriting its request id unless `req` is given.
    */
  def span[A](name: String, req: Long = -1L)(body: => A): A =
    if (!enabled) body
    else {
      val id = ids.getAndIncrement()
      val outer = stack.get
      val parent = outer.headOption.map(_._1).getOrElse(0)
      val reqId = if (req >= 0) req else outer.headOption.map(_._2).getOrElse(0L)
      stack.set((id, reqId) :: outer)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack.set(outer)
        spans.synchronized(spans += Span(id, name, parent, reqId, t0, t1))
      }
    }

  /** Runs `body` inside a root span that began at `startNs` (the JVM
    * start, say); returns the root's id.
    */
  def root(name: String, startNs: Long)(body: => Unit): Int = {
    val id = ids.getAndIncrement()
    if (enabled) {
      stack.set(List((id, 0L)))
      try body
      finally {
        stack.set(Nil)
        spans.synchronized(spans += Span(id, name, 0, 0L, startNs, System.nanoTime()))
      }
    } else body
    id
  }

  def all: Seq[Span] = spans.synchronized(spans.toList).sortBy(_.startNs)

  /** The span `root` and everything below it. */
  def tree(root: Int): Seq[Span] = {
    val byParent = all.groupBy(_.parent)
    def go(s: Span): Seq[Span] = s +: byParent.getOrElse(s.id, Nil).flatMap(go)
    all.find(_.id == root).toSeq.flatMap(go)
  }

  /** Self time per span name: each span's duration minus the part of its
    * interval that its children cover.
    */
  def selfSeconds(ss: Seq[Span] = all): Map[String, Double] = {
    val children = ss.groupBy(_.parent)
    ss.groupMapReduce(_.name) { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(k => (math.max(k.startNs, s.startNs), math.min(k.endNs, s.endNs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var end = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a >= end) { covered += b - a; end = b }
        else if (b > end) { covered += b - end; end = b }
      }
      (s.endNs - s.startNs - covered) / 1e9
    }(_ + _)
  }

  def write(file: java.io.File): Unit = {
    val w = new java.io.PrintWriter(file)
    try all.foreach(s => w.println(Json(ListMap(
      "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "req" -> s.req,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs))))
    finally w.close()
  }
}

/** Spark-wide counters from a listener the benchmark registers. */
final class SparkCounters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val taskMs = new AtomicLong
  val gcMs = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      taskMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def snapshot: Seq[Long] = Seq(jobs.get, tasks.get, taskMs.get, gcMs.get, shuffleBytes.get)
}

/** Every `StreamingQueryProgress`, grouped by the query run that made it,
  * runs in the order they started (the listener bus delivers in order).
  */
final class StreamCollector extends StreamingQueryListener {
  private val progress = mutable.LinkedHashMap.empty[java.util.UUID, mutable.ArrayBuffer[StreamingQueryProgress]]
  private val terminated = mutable.Set.empty[java.util.UUID]

  override def onQueryStarted(e: QueryStartedEvent): Unit =
    synchronized(progress.getOrElseUpdate(e.runId, mutable.ArrayBuffer.empty))
  override def onQueryProgress(e: QueryProgressEvent): Unit =
    synchronized(progress.getOrElseUpdate(e.progress.runId, mutable.ArrayBuffer.empty) += e.progress)
  override def onQueryIdle(e: QueryIdleEvent): Unit = ()
  override def onQueryTerminated(e: QueryTerminatedEvent): Unit =
    synchronized { terminated += e.runId; notifyAll() }

  /** Progress of the `expected` runs that started since `seen`, in start
    * order, once each has terminated (events arrive asynchronously on the
    * listener bus).
    */
  def runsSince(seen: Set[java.util.UUID], expected: Int = 1,
                timeoutMs: Long = 10000L): Seq[Seq[StreamingQueryProgress]] =
    synchronized {
      val deadline = System.currentTimeMillis() + timeoutMs
      def fresh = progress.keys.filterNot(seen).toSeq
      while ((fresh.size < expected || !fresh.forall(terminated)) &&
             System.currentTimeMillis() < deadline)
        wait(math.max(1L, deadline - System.currentTimeMillis()))
      fresh.map(id => progress(id).toList)
    }

  def runIds: Set[java.util.UUID] = synchronized(progress.keySet.toSet)
}

/** CPU time of the JVM's application threads: the driver's, the stream
  * execution threads' and Spark's task threads'. HotSpot lists neither its
  * JIT compiler threads nor its GC threads, so compilation, which takes
  * most of a cold JVM's CPU and varies from run to run, stays out. A
  * sampler thread reads every thread's CPU time every `periodMs`, so a
  * thread that ends inside a measured interval (each streaming query's
  * execution thread does) counts up to its last sample. The sampler and
  * the threads given to [[exclude]] (the load generator) are left out.
  *
  * Other tenants of the host slow this VM's instructions through shared
  * cores and caches, and thread CPU time rises with them although little
  * of it shows as steal. So the sampler also times a probe, a sort of the
  * same 16k pseudo-random longs, in its own thread CPU time each round.
  * The host's slowdown over an interval is the median probe time in it
  * over [[CpuMeter.ProbeReferenceNs]]; CPU seconds divided by it are CPU
  * seconds of a host without that load.
  */
final class CpuMeter(periodMs: Long = 20L) extends AutoCloseable {
  import CpuMeter._
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  /** Latest CPU nanoseconds read per thread id; ids are never reused. */
  private val latest = mutable.LongMap.empty[Long]
  private val excluded = mutable.Set.empty[Long]
  /** (time, CPU nanoseconds) of each timed probe. */
  private val probes = mutable.ArrayBuffer.empty[(Long, Long)]
  private val probeInput = {
    val r = new java.util.SplittableRandom(1L)
    Array.fill(ProbeLongs)(r.nextLong())
  }
  private val probeArray = new Array[Long](ProbeLongs)
  private val sampler = new Thread(() =>
    try {
      (1 to ProbeWarmUp).foreach(_ => probe())
      while (true) {
        sample()
        val ns = probe()
        synchronized(probes += ((System.nanoTime(), ns)))
        Thread.sleep(periodMs)
      }
    } catch { case _: InterruptedException => () }, "perfbench-cpu-sampler")
  sampler.setDaemon(true)
  exclude(sampler)
  sampler.start()

  /** Leaves `t` out; call it before `t` starts. */
  def exclude(t: Thread): Unit = synchronized(excluded += t.getId)

  private def sample(): Unit = synchronized {
    val ids = mx.getAllThreadIds
    val ns = mx.getThreadCpuTime(ids)
    ids.indices.foreach(i => if (ns(i) >= 0) latest(ids(i)) = ns(i))
  }

  /** CPU nanoseconds of one probe, in the calling thread. */
  private def probe(): Long = {
    val t0 = mx.getCurrentThreadCpuTime
    System.arraycopy(probeInput, 0, probeArray, 0, ProbeLongs)
    java.util.Arrays.sort(probeArray)
    mx.getCurrentThreadCpuTime - t0
  }

  /** CPU seconds the counted threads have spent so far. */
  def seconds(): Double = synchronized {
    sample()
    latest.iterator.collect { case (id, ns) if !excluded(id) => ns }.sum / 1e9
  }

  /** A point to measure from: (time, CPU seconds so far). */
  def mark(): (Long, Double) = (System.nanoTime(), seconds())

  /** CPU seconds the counted threads have spent since `from`, and the
    * host's slowdown meanwhile.
    */
  def since(from: (Long, Double)): (Double, Double) = {
    val cpu = seconds() - from._2
    val ns = synchronized {
      val inside = probes.filter(_._1 >= from._1)
      (if (inside.nonEmpty) inside else probes).map(_._2.toDouble).toSeq
    }
    (cpu, if (ns.isEmpty) 1.0 else Stats.median(ns) / ProbeReferenceNs)
  }

  /** Runs `body`; returns its result, the CPU seconds spent meanwhile and
    * the host's slowdown over that time.
    */
  def measure[A](body: => A): (A, Double, Double) = {
    val from = mark()
    val r = body
    val (cpu, slowdown) = since(from)
    (r, cpu, slowdown)
  }

  def close(): Unit = { sampler.interrupt(); sampler.join() }
}

object CpuMeter {
  val ProbeLongs = 16384
  /** Probes run, untimed, before the first timed one, so the JIT has
    * compiled the sort.
    */
  val ProbeWarmUp = 200
  /** About the median probe time on the 4-vCPU VM this benchmark was
    * tuned on: the speed that a slowdown of 1 stands for.
    */
  val ProbeReferenceNs = 1500000.0
}

/** Peak heap in use after GC over a window, from the notification each
  * garbage collector sends when a collection ends, so memory that is freed
  * again inside the window counts too. The window opens and closes with a
  * full GC. The heap in use after the opening one, which holds what the
  * set-up left (the load generator's data among it), is subtracted.
  */
final class HeapPeak {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  /** Per collection: (end, ms after JVM start; heap bytes in use after; was System.gc()). */
  private val gcs = mutable.ArrayBuffer.empty[(Long, Long, Boolean)]
  private var opened = (0L, 0L)

  private val listener: NotificationListener = (n: Notification, _: AnyRef) =>
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
        .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      synchronized {
        gcs += ((info.getGcInfo.getEndTime, used, info.getGcCause == "System.gc()"))
        notifyAll()
      }
    }
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach(
    _.asInstanceOf[NotificationEmitter].addNotificationListener(listener, null, null))

  /** Runs a full GC; returns its (end, heap in use after) once it is notified. */
  private def fullGc(): (Long, Long) = synchronized {
    val seen = gcs.size
    System.gc()
    val deadline = System.nanoTime() + 10000000000L
    def mine = gcs.drop(seen).find(_._3)
    while (mine.isEmpty && System.nanoTime() < deadline) wait(50)
    mine.map(g => (g._1, g._2)).getOrElse(throw new IllegalStateException("no full GC was notified"))
  }

  def open(): Unit = opened = fullGc()

  /** Closes the window; returns its peak in MB above the opening heap. */
  def closeMb(): Double = {
    val (end, _) = fullGc()
    val peak = synchronized(gcs.filter(g => g._1 >= opened._1 && g._1 <= end).map(_._2).max)
    (peak - opened._2) / (1024.0 * 1024.0)
  }
}

/** Per-pass figures from the query's own `StreamingQueryProgress`. */
object StreamStats {
  def fill(c: Ctx, passes: Seq[(Double, Seq[StreamingQueryProgress])]): Unit = {
    def dur(p: StreamingQueryProgress, k: String): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    def perPass(f: StreamingQueryProgress => Double): Double =
      Stats.median(passes.map(_._2.map(f).sum))
    val all = passes.flatMap(_._2)
    val state = all.flatMap(_.stateOperators)
    c.layer ++= Seq(
      "core.passes" -> passes.size.toDouble,
      "core.batches" -> all.size.toDouble,
      "core.empty_batches" -> all.count(_.numInputRows == 0).toDouble,
      "core.pass_s" -> Stats.median(passes.map(_._1)),
      "core.start_ms" -> Stats.median(passes.map { case (s, ps) => s * 1000 - ps.map(dur(_, "triggerExecution")).sum }),
      "core.trigger_ms" -> perPass(dur(_, "triggerExecution")),
      "core.addbatch_ms" -> perPass(dur(_, "addBatch")),
      "core.plan_ms" -> perPass(dur(_, "queryPlanning")),
      "core.offsets_ms" -> perPass(p => dur(p, "latestOffset") + dur(p, "getBatch") + dur(p, "walCommit")),
      "core.commit_ms" -> perPass(dur(_, "commitOffsets")),
      "core.input_rows" -> all.map(_.numInputRows.toDouble).sum,
      "core.state_rows" -> (0.0 +: state.map(_.numRowsTotal.toDouble)).max,
      "core.state_bytes" -> (0.0 +: state.map(_.memoryUsedBytes.toDouble)).max,
      "core.watermark_dropped" -> state.map(_.numRowsDroppedByWatermark.toDouble).sum)
    c.record("core_state_rows_per_pass") =
      passes.map(_._2.flatMap(_.stateOperators).map(_.numRowsTotal).maxOption.getOrElse(0L))
  }
}
