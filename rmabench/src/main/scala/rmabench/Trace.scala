package rmabench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.rmabench.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One timed interval around a call into a layer.
  *
  * `cells` (application cells a split collected) and `flops` (nominal flops
  * of a kernel call, computed from the textbook formula for the op and shape)
  * are set by the caller; the Spark counters are filled in from
  * [[SpanListener]] and the GC counters from the JVM's MXBeans.
  */
final class Span(val id: Int, val query: Int, val name: String, val parent: Int, val startNs: Long) {
  var endNs: Long = -1L
  var gcMs: Long = 0L
  var gcCount: Long = 0L
  var jobs: Long = 0L
  var tasks: Long = 0L
  var shuffleWriteBytes: Long = 0L
  var resultBytes: Long = 0L
  var cells: Long = 0L
  var flops: Double = 0.0
  var heapPeakBytes: Long = 0L

  def seconds: Double = (endNs - startNs) / 1e9

  def toJson: String = Json.obj(
    "id" -> id, "query" -> query, "name" -> name, "parent" -> parent,
    "start_ns" -> startNs, "end_ns" -> endNs, "gc_ms" -> gcMs, "gc_count" -> gcCount,
    "jobs" -> jobs, "tasks" -> tasks, "shuffle_write_bytes" -> shuffleWriteBytes,
    "result_bytes" -> resultBytes, "cells" -> cells, "flops" -> flops,
    "heap_peak_bytes" -> heapPeakBytes)
}

/** GC and heap counters read from the JVM's management beans. */
object Jvm {
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  /** Heap pools other than eden: eden always fills up before a young
    * collection, so its peak is its size, not what the query kept alive.
    */
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq
    .filter(p => p.getType == MemoryType.HEAP && !p.getName.toLowerCase.contains("eden"))

  def gcMillis: Long = collectors.map(c => math.max(0L, c.getCollectionTime)).sum
  def gcCount: Long = collectors.map(c => math.max(0L, c.getCollectionCount)).sum

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the non-eden heap pools' peak use since the last reset. */
  def heapPeakBytes: Long = heapPools.map(_.getPeakUsage.getUsed).sum
}

/** Per-span Spark counters, attributed through the job property
  * [[Tracer.SpanProperty]] that the driver thread sets while a span is open.
  */
final class SpanListener extends SparkListener {
  final class Counts {
    var jobs = 0L; var tasks = 0L; var shuffleWriteBytes = 0L; var resultBytes = 0L
  }
  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val counts = new ConcurrentHashMap[Int, Counts]()

  private def of(span: Int): Counts = counts.computeIfAbsent(span, _ => new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty))).foreach { s =>
      val span = s.toInt
      of(span).synchronized(of(span).jobs += 1)
      e.stageIds.foreach(stageSpan.put(_, span))
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageSpan.get(e.stageId)).foreach { span =>
      val c = of(span)
      c.synchronized {
        c.tasks += 1
        Option(e.taskMetrics).foreach { m =>
          c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
          c.resultBytes += m.resultSize
        }
      }
    }

  /** Move the counts gathered so far into their spans. */
  def drainInto(spans: Iterable[Span]): Unit = spans.foreach { s =>
    Option(counts.remove(s.id)).foreach { c =>
      s.jobs += c.jobs; s.tasks += c.tasks
      s.shuffleWriteBytes += c.shuffleWriteBytes; s.resultBytes += c.resultBytes
    }
  }
}

/** Records spans around the benchmark's calls into each layer. Spans are
  * kept in memory and written out when the run ends. The listener is
  * registered only while a traced query runs, so untraced queries pay
  * nothing for it.
  */
final class Tracer(sc: SparkContext) {
  val spans = ArrayBuffer[Span]()
  private val listener = new SpanListener
  private var open: List[Span] = Nil
  private var nextId = 0

  /** Run `f` as traced query `q`, under a root span named "query". */
  def query[A](q: Int)(f: => A): (A, Span) = {
    sc.addSparkListener(listener)
    Jvm.resetHeapPeak()
    val root = start("query", q)
    try {
      val out = f
      (out, root)
    } finally {
      root.heapPeakBytes = Jvm.heapPeakBytes
      finish(root)
      ListenerDrain(sc)
      sc.removeSparkListener(listener)
      listener.drainInto(spans.filter(_.query == q))
    }
  }

  /** Run `f` inside a span named `name` of the open query. */
  def span[A](name: String)(f: Span => A): A = {
    val s = start(name, open.head.query)
    try f(s) finally finish(s)
  }

  private def start(name: String, q: Int): Span = {
    val s = new Span(nextId, q, name, open.headOption.fold(-1)(_.id), System.nanoTime())
    nextId += 1
    s.gcMs = -Jvm.gcMillis
    s.gcCount = -Jvm.gcCount
    spans += s
    open = s :: open
    sc.setLocalProperty(Tracer.SpanProperty, s.id.toString)
    s
  }

  private def finish(s: Span): Unit = {
    s.endNs = System.nanoTime()
    s.gcMs += Jvm.gcMillis
    s.gcCount += Jvm.gcCount
    open = open.tail
    sc.setLocalProperty(Tracer.SpanProperty, open.headOption.map(_.id.toString).orNull)
  }
}

object Tracer {
  val SpanProperty = "rmabench.span"
}
