package rmabench

/** Minimal JSON writer for the benchmark's result line, run record and
  * trace file. Doubles are written with all their digits.
  */
object Json {
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case Raw(s) => s
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x }: _*)
    case xs: Iterable[_] => xs.map(value).mkString("[", ", ", "]")
    case other => str(other.toString)
  }

  /** Already-encoded JSON, inserted verbatim. */
  final case class Raw(json: String)

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
