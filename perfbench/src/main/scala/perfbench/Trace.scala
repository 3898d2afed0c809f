package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** In-memory spans, recorded only in the traced run and written out at the
  * end. A span's parent is the span open around it when it started (0 for
  * none); all spans of one run share `runId`.
  */
final class Tracer(val runId: String, val enabled: Boolean) {
  import Tracer.Span

  private val originNs   = System.nanoTime()
  private val originWall = System.currentTimeMillis()
  private val spans      = mutable.ArrayBuffer.empty[Span]
  private var open       = List(0)
  private var nextId     = 1

  private def ms(ns: Long): Double = (ns - originNs) / 1e6

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.head
      val t0 = System.nanoTime()
      open ::= id
      try body
      finally {
        open = open.tail
        spans += Span(id, parent, name, ms(t0), ms(System.nanoTime()))
      }
    }

  /** Records a span measured elsewhere, e.g. an optimizer phase or a
    * micro-batch reported by a listener, under the currently open span.
    */
  def record(name: String, startMs: Double, endMs: Double): Unit =
    if (enabled) { spans += Span(nextId, open.head, name, startMs, endMs); nextId += 1 }

  def nowMs: Double = ms(System.nanoTime())

  /** Converts an epoch-millisecond wall-clock time to this tracer's axis. */
  def fromWallMs(epochMs: Long): Double = (epochMs - originWall).toDouble

  def size: Int = spans.size

  def write(path: Path): Unit = {
    val body = spans.sortBy(_.startMs).map { s =>
      Json.obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ms" -> s.startMs, "end_ms" -> s.endMs, "run" -> runId)
    }.mkString("[\n  ", ",\n  ", "\n]")
    Files.createDirectories(path.getParent)
    Files.write(path, (Json.obj("run" -> runId, "spans" -> Json.Raw(body)) + "\n")
      .getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double)
}

/** Minimal JSON rendering for flat records. */
object Json {
  def value(v: Any): String = v match {
    case s: String  => "\"" + s.flatMap {
        case '"'  => "\\\""
        case '\\' => "\\\\"
        case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c => c.toString
      } + "\""
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Number  => n.toString
    case null       => "null"
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x }: _*)
    case s: Seq[_]  => s.map(value).mkString("[", ", ", "]")
    case raw: Raw   => raw.json
    case other      => value(other.toString)
  }
  final case class Raw(json: String)
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => value(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
