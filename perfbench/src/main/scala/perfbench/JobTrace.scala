package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

import scala.collection.mutable

/** Attributes every Spark job to the layer of the program that caused it,
  * from outside the program.
  *
  * A job's layer is read off the innermost `repro.*` frame of its call
  * site. Most jobs are submitted from adaptive-execution pool threads whose
  * own stack holds no program frame, so the call site is looked up through
  * the job's `spark.sql.execution.id` property in the details of the SQL
  * execution that started it; the first stage's call site is the fallback
  * for jobs outside any SQL execution.
  */
object JobTrace {

  /** Local property tagging every job with the benchmark call that ran it. */
  val CallProperty = "perfbench.call"

  /** Layer buckets, keyed by the `Object.method` prefix of the innermost
    * program frame. The first matching prefix wins.
    */
  val layerOfFunction: Seq[(String, String)] = Seq(
    "Metrics.coverage" -> "coverage",
    "Metrics.provSizes" -> "provsizes",
    "Mine.numericFragments" -> "fragments",
    "Mine." -> "mine",
    "Apt." -> "mine",
    "LocalSample." -> "sample",
    "Enumerate." -> "enumerate",
    "Cajade.explain" -> "query",
    "Query." -> "query",
  )

  /** `Object.method` of the innermost `repro.*` frame of a long-form call
    * site, e.g. `repro.core.Metrics$.$anonfun$coverage$1(Metrics.scala:44)`
    * gives `Metrics.coverage`.
    */
  def programFunction(callSite: String): Option[String] =
    callSite.linesIterator.map(_.trim).find(_.startsWith("repro.")).map { frame =>
      val qualified = frame.takeWhile(_ != '(')
      val dot = qualified.lastIndexOf('.')
      val owner = qualified.take(dot).split('.').last.split('$').filter(_.nonEmpty).mkString(".")
      val raw = qualified.drop(dot + 1)
      val method =
        if (raw.startsWith("$anonfun$")) raw.stripPrefix("$anonfun$").takeWhile(_ != '$')
        else raw.takeWhile(_ != '$')
      s"$owner.$method"
    }

  def layerOf(function: String): Option[String] =
    layerOfFunction.collectFirst { case (prefix, layer) if function.startsWith(prefix) => layer }

  final case class Job(id: Int, call: String, start: Long, end: Long, function: Option[String],
                       layer: Option[String], stages: Int, tasks: Int)

  /** Seconds covered by the union of the given [start, end] millisecond intervals. */
  def busySeconds(intervals: Seq[(Long, Long)]): Double = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s; curEnd = e
      } else if (e > curEnd) curEnd = e
    }
    if (curEnd > curStart) total += curEnd - curStart
    total / 1000.0
  }
}

/** Listener that records one [[JobTrace.Job]] per finished job. */
final class JobTrace extends SparkListener {
  import JobTrace._

  private val executionSites = mutable.Map.empty[Long, String]
  private final class Open(val call: String, val start: Long, val site: Option[String], val stageIds: Seq[Int]) {
    var stages = 0
    var tasks = 0
  }
  private val open = mutable.Map.empty[Int, Open]
  private val jobOfStage = mutable.Map.empty[Int, Int]
  private val done = mutable.ArrayBuffer.empty[Job]

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized { executionSites(e.executionId) = e.details }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    def prop(k: String): Option[String] = props.flatMap(p => Option(p.getProperty(k)))
    val sqlSite = prop("spark.sql.execution.id").flatMap(id => executionSites.get(id.toLong))
    val stageSite = e.stageInfos.sortBy(_.stageId).headOption.map(_.details)
    val site = Seq(sqlSite, stageSite).flatten.find(s => programFunction(s).isDefined)
    open(e.jobId) = new Open(prop(CallProperty).getOrElse(""), e.time, site, e.stageIds)
    e.stageIds.foreach(jobOfStage(_) = e.jobId)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    jobOfStage.get(e.stageInfo.stageId).flatMap(open.get).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    jobOfStage.get(e.stageId).flatMap(open.get).foreach(_.tasks += 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { o =>
      val fn = o.site.flatMap(programFunction)
      done += Job(e.jobId, o.call, o.start, e.time, fn, fn.flatMap(layerOf), o.stages, o.tasks)
      o.stageIds.foreach(jobOfStage.remove)
    }
  }

  /** Removes and returns the finished jobs of one call. */
  def take(call: String): Seq[Job] = synchronized {
    val (mine, rest) = done.partition(_.call == call)
    done.clear(); done ++= rest
    mine.sortBy(_.id).toSeq
  }
}
